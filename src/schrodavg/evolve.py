"""Forward-in-time evolution of coefficient vectors and trajectory norms."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError
from .spectral import CUSTOM, ModeCoefficients, SpectralBasis, _norm_weights, _weighted_norm, _write_csv

# beyond this phase magnitude, reduce mod 2*pi before exponentiating to limit
# argument-reduction error on long-time evaluations
_PHASE_REDUCE = 1.0e8


def _check_times(times) -> np.ndarray:
    """Read-only float copy of nonempty, finite, ascending sample times."""
    t = np.array(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise InvalidArgumentError("times must be a nonempty 1-d vector")
    if not np.isfinite(t).all() or np.any(np.diff(t) < 0):
        raise InvalidArgumentError("times must be finite and ascending")
    t.setflags(write=False)
    return t


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ascending sample times; row j of the read-only complex (len(times), N)
    array ``states`` holds the coefficients of u(times[j]) on ``basis``."""

    times: np.ndarray
    states: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        t = _check_times(self.times)
        # a read-only view, not a copy, which would double the peak memory
        v = np.asarray(self.states, dtype=complex).view()
        if v.shape != (t.size, self.basis.mode_count):
            raise InvalidArgumentError(f"states must have shape (len(times), N), got {v.shape}")
        if not np.isfinite(v).all():
            raise InvalidArgumentError("states must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", v)


def _evolve(values: np.ndarray, lambdas: np.ndarray, times) -> np.ndarray:
    """Rows values * exp(-i lambdas t_j), one per time, shape (len(times), N).

    Row by row: one outer-product phase holds several (n_times, N) temporaries,
    and from N = 16384 numpy's temporary elision would compute exp * values,
    which differs from values * exp in last bits.
    """
    out = np.empty((len(times), values.size), dtype=complex)
    for j, t in enumerate(times):
        phase = lambdas * t
        big = np.abs(phase) > _PHASE_REDUCE
        if np.any(big):
            phase = np.where(big, np.remainder(phase, 2.0 * np.pi), phase)
        out[j] = values * np.exp(-1j * phase)
    return out


def propagate(xi: ModeCoefficients, t: float) -> ModeCoefficients:
    """Multiply mode k by exp(-i lambda_k t); modulus is preserved per mode."""
    t = float(t)
    if not np.isfinite(t):
        raise InvalidArgumentError("time must be finite")
    return ModeCoefficients(_evolve(xi.values, xi.basis.lambdas, (t,))[0], xi.basis)


def sample_trajectory(xi: ModeCoefficients, T: float, steps: int) -> Trajectory:
    """Uniform sampling t_j = j T / steps, j = 0..steps."""
    if not (np.isfinite(T) and T > 0):
        raise InvalidArgumentError(f"horizon T must be positive, got {T}")
    if int(steps) != steps or steps < 1:
        raise InvalidArgumentError(f"steps must be a positive integer, got {steps}")
    times = np.linspace(0.0, float(T), int(steps) + 1)
    return Trajectory(times, _evolve(xi.values, xi.basis.lambdas, times), xi.basis)


def trajectory_sup_norm(traj: Trajectory, order: int) -> float:
    """Max over sampled times of the order-0 or order-1 coefficient norm."""
    if order not in (0, 1):
        raise InvalidArgumentError(f"sup norm supports orders 0 and 1, got {order!r}")
    w = _norm_weights(traj.basis, order)
    # row by row: one (n_times, N) weighted sum would hold several such temporaries
    return max(_weighted_norm(v, w) for v in traj.states)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write rows t,k,re,im through the shared 17g writer, plus a basis sidecar.

    Each time is formatted once and repeated over its N rows.  The sidecar
    lands next to the CSV with suffix ``.meta.json``.
    """
    path = Path(path)
    n = traj.basis.mode_count
    times = [f"{t:.17g}" for t in traj.times.tolist()]
    v = traj.states.ravel()
    _write_csv(path, "t,k,re,im", [
        [ts for ts in times for _ in range(n)], list(range(1, n + 1)) * len(times), v.real, v.imag,
    ])
    b = traj.basis
    meta = {"kind": b.kind, "L": b.domain_length, "N": b.mode_count, "cA": b.c_A}
    if b.kind == CUSTOM:
        meta["lambdas"] = [float(x) for x in b.lambdas]
    path.with_suffix(".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
