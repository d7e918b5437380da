"""Forward-in-time evolution of coefficient vectors and trajectory norms."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError
from .spectral import CUSTOM, ModeCoefficients, _write_csv, sobolev_norm

# beyond this phase magnitude, reduce mod 2*pi before exponentiating to limit
# argument-reduction error on long-time evaluations
_PHASE_REDUCE = 1.0e8


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ascending sample times plus one coefficient state per time."""

    times: np.ndarray
    states: tuple[ModeCoefficients, ...]

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise InvalidArgumentError("times must be a nonempty 1-d vector")
        if not np.all(np.isfinite(t)) or np.any(np.diff(t) < 0):
            raise InvalidArgumentError("times must be finite and ascending")
        states = tuple(self.states)
        if len(states) != t.size:
            raise InvalidArgumentError("one state required per time")
        if any(s.basis is not states[0].basis for s in states):
            raise InvalidArgumentError("all states must share one basis")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", states)

    @property
    def basis(self):
        return self.states[0].basis


def propagate(xi: ModeCoefficients, t: float) -> ModeCoefficients:
    """Multiply mode k by exp(-i lambda_k t); modulus is preserved per mode."""
    t = float(t)
    if not np.isfinite(t):
        raise InvalidArgumentError("time must be finite")
    phase = xi.basis.lambdas * t
    big = np.abs(phase) > _PHASE_REDUCE
    if np.any(big):
        phase = np.where(big, np.remainder(phase, 2.0 * np.pi), phase)
    return ModeCoefficients(xi.values * np.exp(-1j * phase), xi.basis)


def sample_trajectory(xi: ModeCoefficients, T: float, steps: int) -> Trajectory:
    """Uniform sampling t_j = j T / steps, j = 0..steps."""
    if not (np.isfinite(T) and T > 0):
        raise InvalidArgumentError(f"horizon T must be positive, got {T}")
    if int(steps) != steps or steps < 1:
        raise InvalidArgumentError(f"steps must be a positive integer, got {steps}")
    times = np.linspace(0.0, float(T), int(steps) + 1)
    return Trajectory(times, tuple(propagate(xi, t) for t in times))


def trajectory_sup_norm(traj: Trajectory, order: int) -> float:
    """Max over sampled times of the order-0 or order-1 coefficient norm."""
    if order not in (0, 1):
        raise InvalidArgumentError(f"sup norm supports orders 0 and 1, got {order!r}")
    return max(sobolev_norm(s, order) for s in traj.states)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write rows t,k,re,im through the shared 17g writer, plus a basis sidecar.

    Each time is formatted once and repeated over its N rows.  The sidecar
    lands next to the CSV with suffix ``.meta.json``.
    """
    path = Path(path)
    n = traj.basis.mode_count
    times = [f"{t:.17g}" for t in traj.times.tolist()]
    v = np.concatenate([s.values for s in traj.states])
    _write_csv(path, "t,k,re,im", [
        [ts for ts in times for _ in range(n)], list(range(1, n + 1)) * len(times), v.real, v.imag,
    ])
    b = traj.basis
    meta = {"kind": b.kind, "L": b.domain_length, "N": b.mode_count, "cA": b.c_A}
    if b.kind == CUSTOM:
        meta["lambdas"] = [float(x) for x in b.lambdas]
    path.with_suffix(".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
