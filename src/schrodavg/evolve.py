"""Forward-in-time evolution of coefficient vectors and trajectory norms."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError, NumericError, _array, _count, _positive, _vector
from .spectral import ModeCoefficients, SpectralBasis, _norm_weights, _weighted_norm, _write_csv, basis_to_json

# beyond this phase magnitude, fold mod 2*pi before cos and sin: for speed
# (glibc reduces large arguments slowly), not accuracy: a direct exp is within
# 1 ulp from 1e8 to 1e14, and the fold adds up to 3.9e-17 |phase|.  A row
# lambda * t is monotone (lambda nondecreasing), so only a run at each end folds
_PHASE_REDUCE = 1.0e8

# numpy elides a temporary of 256 KiB or more, 16384 complex values, into
# the result of the next operation on it
_ELIDE_VALUES = 16384

# rows of at least this many values are filled and reduced on threads, and
# the factors of a basis of at least this many modes evaluated on threads: on
# a 2-vCPU VM, two threads took 1.1-1.2x the serial time of a 33-row
# trajectory plus its two sup norms at N <= 24576 and 0.5-0.9x from N = 2^15
# on, so 2^16 keeps a margin
_THREAD_MIN_VALUES = 1 << 16
# at most this many threads, each holding one row's temporaries
_MAX_THREADS = 4


def _check_times(times) -> np.ndarray:
    """Read-only float copy of nonempty, finite, ascending sample times."""
    return _vector(times, float, "times", ascending=True)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ascending sample times; row j of the read-only complex (len(times), N)
    array ``states`` holds the coefficients of u(times[j]) on ``basis``.

    Built by hand, it checks its times and states; the package's producers
    check each block of rows as they fill it instead (_trusted_trajectory)."""

    times: np.ndarray
    states: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        t = _check_times(self.times)
        # a read-only view, not a copy, which would double the peak memory
        v = _array(self.states, complex, "states", copy=False).view()
        if v.shape != (t.size, self.basis.mode_count) or not np.isfinite(v).all():
            raise InvalidArgumentError(f"states must be finite, of shape (len(times), N), got shape {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", v)


def _row_blocks(n_rows: int, n: int) -> list:
    """Slices of B = max(1, 16383 // n) rows: a block of several rows keeps
    its phase temporary of B * n values under 256 KiB, a longer row is a
    block of its own, and threads get whole rows."""
    b = max(1, (_ELIDE_VALUES - 1) // n)
    return [slice(i, i + b) for i in range(0, n_rows, b)]


def _map_blocks(fn, blocks, n: int) -> list:
    """[fn(k) for k in blocks], spread over threads when n, the values of a
    row or the modes of a basis, is at least _THREAD_MIN_VALUES and the
    process may run on more than one CPU (numpy drops the GIL in its loops).
    Each block's result is the serial one, computed under the caller's numpy
    error handling, and the first block to raise raises here."""
    workers = 1
    if n >= _THREAD_MIN_VALUES and hasattr(os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), len(blocks), _MAX_THREADS)
    if workers < 2:
        return [fn(k) for k in blocks]
    from concurrent.futures import ThreadPoolExecutor

    # a new thread starts with numpy's default error handling, not the caller's
    err, call = np.geterr(), np.geterrcall()

    def run(k):
        with np.errstate(call=call, **err):
            return fn(k)

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(run, blocks))


def _require_finite(states: np.ndarray, times: np.ndarray) -> None:
    """Raise NumericError naming the first of ``times`` whose row of
    ``states`` (one row per time) overflowed."""
    if not np.isfinite(states.view(float)).all():  # one scan of both parts
        t = times[~np.isfinite(states).all(axis=-1)][0]
        raise NumericError(f"trajectory overflows: the state at t = {t:.17g} is not finite")


def _fold_ends(phase: np.ndarray, t: np.ndarray) -> None:
    """Fold mod 2*pi, in place, the phases beyond +-_PHASE_REDUCE in each row
    lambda * t_j of ``phase``: a run at each end, found by bisection."""
    for p, tj in zip(phase, t.flat):
        q = p if tj >= 0.0 else p[::-1]
        lo = q.searchsorted(-_PHASE_REDUCE, "left")
        hi = q.searchsorted(_PHASE_REDUCE, "right")
        for run in (q[:lo], q[hi:]):
            np.remainder(run, 2.0 * np.pi, out=run)


def _evolve(values: np.ndarray, lam: np.ndarray, times: np.ndarray, index=None) -> np.ndarray:
    """Rows values * exp(-i lambda_k t_j), one per time, shape (len(times), N),
    filled a block of _row_blocks at a time, bitwise equal to a row loop, and
    each block checked finite (NumericError) as it is filled.  ``lam`` holds
    each mode's eigenvalue, or, with ``index``, the distinct eigenvalues,
    lam[index] being the modes' (a basis's _distinct map): then phases and
    their exps are computed once per distinct eigenvalue and gathered into
    each row.

    exp(-i phase) is written as cos(phase) and -sin(phase), bitwise
    np.exp(-1j * phase), as glibc's exp(0 + iy) is (cos y, sin y).
    Each block is written in place, with no complex temporary of its size.
    Its product is values * exp below N = _ELIDE_VALUES and exp * values from
    there on, as in a row loop where numpy elides exp from that size: complex
    products are not bitwise commutative."""
    n = values.size
    out = np.empty((times.size, n), dtype=complex)
    # rounding is monotone, so a block holds a phase above _PHASE_REDUCE exactly
    # when max|lambda| max|t| does; lam and times ascend: both sit at their ends
    lam_max = max(-float(lam[0]), float(lam[-1]))

    def fill(k):
        t = times[k, None]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
            phase = lam * t
            if lam_max * max(-float(t.flat[0]), float(t.flat[-1])) > _PHASE_REDUCE:
                _fold_ends(phase, t)
            row = out[k]
            e = row if index is None else np.empty(phase.shape, dtype=complex)
            np.cos(phase, out=e.real)
            np.sin(phase, out=e.imag)
            np.conjugate(e, out=e)  # -sin: np.negative in place on the strided e.imag was slower
            if index is not None:
                np.take(e, index, axis=-1, out=row)
            if n < _ELIDE_VALUES:
                np.multiply(values, row, out=row)
            else:
                np.multiply(row, values, out=row)
        _require_finite(out[k], times[k])

    _map_blocks(fill, _row_blocks(times.size, n), n)
    return out


def _trajectory(values: np.ndarray, basis: SpectralBasis, times: np.ndarray) -> Trajectory:
    """Trajectory of ``values`` evolved on ``basis`` at ``times``, which
    _check_times returned.  _evolve has checked every block it filled, so
    Trajectory's checks of times and states are not run a second time."""
    lam, index = basis._distinct
    states = _evolve(values, lam, times, index)
    return _trusted_trajectory(times, states, basis)


def _trusted_trajectory(times: np.ndarray, states: np.ndarray, basis: SpectralBasis) -> Trajectory:
    """Trajectory(times, states, basis) for checked times and finite states of
    the right shape that no one else holds, without checking them again."""
    traj = object.__new__(Trajectory)
    states.setflags(write=False)
    for name, value in (("times", times), ("states", states), ("basis", basis)):
        object.__setattr__(traj, name, value)
    return traj


def propagate(xi: ModeCoefficients, t: float) -> ModeCoefficients:
    """Multiply mode k by exp(-i lambda_k t); modulus is preserved per mode."""
    t = _positive(t, "time", -math.inf)  # any finite time
    lam, index = xi.basis._distinct
    return ModeCoefficients(_evolve(xi.values, lam, np.array([t]), index)[0], xi.basis)


def sample_trajectory(xi: ModeCoefficients, T: float, steps: int) -> Trajectory:
    """Uniform sampling t_j = j T / steps, j = 0..steps."""
    T = _positive(T, "T")
    steps = _count(steps, "steps", 1)
    return _trajectory(xi.values, xi.basis, _check_times(np.linspace(0.0, T, steps + 1)))


def trajectory_sup_norm(traj: Trajectory, order: int) -> float:
    """Max over sampled times of the order-0 or order-1 coefficient norm."""
    if order not in (0, 1):
        raise InvalidArgumentError(f"sup norm supports orders 0 and 1, got {order!r}")
    w = _norm_weights(traj.basis, order)
    # a block of _row_blocks at a time: each row's sum is bitwise a 1-d row's
    s = traj.states
    n = traj.basis.mode_count
    return max(_map_blocks(lambda k: _weighted_norm(s[k], w, order), _row_blocks(len(s), n), n))


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write rows t,k,re,im through the shared 17g writer, plus a basis sidecar.

    Each time is formatted once and broadcast over its N rows, with no column
    copied.  The sidecar, the basis as spectral.basis_to_json encodes it,
    lands next to the CSV with suffix ``.meta.json``.
    """
    path = Path(path)
    s = traj.states
    times = np.array([f"{t:.17g}" for t in traj.times.tolist()])
    t, k = np.broadcast_arrays(times[:, None], np.arange(1, s.shape[1] + 1))
    _write_csv(path, "t,k,re,im", [t, k, s.real, s.imag])
    path.with_suffix(".meta.json").write_text(json.dumps(basis_to_json(traj.basis), indent=2) + "\n")
