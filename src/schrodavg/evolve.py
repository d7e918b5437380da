"""Forward-in-time evolution of coefficient vectors and trajectory norms."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError
from .spectral import ModeCoefficients, SpectralBasis, _norm_weights, _weighted_norm, _write_csv, basis_to_json

# beyond this phase magnitude, reduce mod 2*pi before exponentiating to limit
# argument-reduction error on long-time evaluations
_PHASE_REDUCE = 1.0e8

# numpy elides a temporary of 256 KiB or more, 16384 complex values, into
# the result of the next operation on it
_ELIDE_VALUES = 16384

# rows of at least this many values are filled and reduced on threads: on a
# 2-vCPU VM, two threads took 1.1-1.2x the serial time of a 33-row trajectory
# plus its two sup norms at N <= 24576 and 0.5-0.9x from N = 2^15 on, so 2^16
# keeps a margin
_THREAD_MIN_VALUES = 1 << 16
# at most this many threads, each holding one row's temporaries
_MAX_THREADS = 4


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


def _row_blocks(n_rows: int, n: int):
    """Blocks of B = max(1, 16383 // n) rows, as slices, or as row numbers at
    B = 1 so that every row stays 1-d.  B * n < _ELIDE_VALUES keeps each
    temporary below numpy's elision size: an elided values * exp computes
    exp * values, which differs in last bits."""
    b = max(1, (_ELIDE_VALUES - 1) // n)
    return range(n_rows) if b == 1 else [slice(i, i + b) for i in range(0, n_rows, b)]


def _map_blocks(fn, n_rows: int, n: int) -> list:
    """[fn(k) for k in _row_blocks(n_rows, n)], spread over threads when a row
    holds at least _THREAD_MIN_VALUES values and the process may run on more
    than one CPU (numpy drops the GIL in its loops).  Each block's result is
    the serial one, and the first block to raise raises here."""
    blocks = _row_blocks(n_rows, n)
    workers = 1
    if n >= _THREAD_MIN_VALUES and hasattr(os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), len(blocks), _MAX_THREADS)
    if workers < 2:
        return [fn(k) for k in blocks]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, blocks))


def _evolve(values: np.ndarray, lambdas: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Rows values * exp(-i lambdas t_j), one per time, shape (len(times), N),
    filled a block of _row_blocks at a time, bitwise equal to a row loop.  At
    B = 1 (N >= 8192) each row stays 1-d: numpy elides it from N =
    _ELIDE_VALUES, but not a (1, N) block, whose bits would differ.  From
    there on a row is computed in place as the elided exp * values, in that
    operand order, so that it needs no complex temporaries."""
    out = np.empty((times.size, values.size), dtype=complex)
    # rounding is monotone, so a row holds a phase above _PHASE_REDUCE exactly
    # when max|lambda| |t| rounds above it: no row is scanned for that
    lam_max = np.abs(lambdas).max()

    def fill(k):
        phase = lambdas * times[k, None]
        if np.any(lam_max * np.abs(times[k]) > _PHASE_REDUCE):
            big = np.abs(phase) > _PHASE_REDUCE
            phase = np.where(big, np.remainder(phase, 2.0 * np.pi), phase)
        if values.size < _ELIDE_VALUES:
            out[k] = values * np.exp(-1j * phase)
            return
        row = out[k]
        np.multiply(-1j, phase, out=row)
        np.exp(row, out=row)
        np.multiply(row, values, out=row)

    _map_blocks(fill, times.size, values.size)
    return out


def propagate(xi: ModeCoefficients, t: float) -> ModeCoefficients:
    """Multiply mode k by exp(-i lambda_k t); modulus is preserved per mode."""
    t = float(t)
    if not np.isfinite(t):
        raise InvalidArgumentError("time must be finite")
    return ModeCoefficients(_evolve(xi.values, xi.basis.lambdas, np.array([t]))[0], xi.basis)


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
    # a block of _row_blocks at a time: each row's sum is bitwise a 1-d row's
    s = traj.states
    return max(_map_blocks(lambda k: float(_weighted_norm(s[k], w, order).max()), *s.shape))


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write rows t,k,re,im through the shared 17g writer, plus a basis sidecar.

    Each time is formatted once and repeated over its N rows.  The sidecar,
    the basis as spectral.basis_to_json encodes it, lands next to the CSV with
    suffix ``.meta.json``.
    """
    path = Path(path)
    n = traj.basis.mode_count
    times = [f"{t:.17g}" for t in traj.times.tolist()]
    v = traj.states.ravel()
    _write_csv(path, "t,k,re,im", [
        [ts for ts in times for _ in range(n)], list(range(1, n + 1)) * len(times), v.real, v.imag,
    ])
    path.with_suffix(".meta.json").write_text(json.dumps(basis_to_json(traj.basis), indent=2) + "\n")
