"""Crank-Nicolson cross-check on a uniform Dirichlet grid.

Evolves grid samples with the implicit-midpoint step on the 3-point Laplacian
and accumulates the exponentially weighted Simpson sum in time.  The module
shares only grid synthesis/projection with the rest of the package; agreement
with the coefficient-space pipeline is therefore an independent check, not a
tautology.

The step matrix I - i (dt/2) A_h is the same on every step, so a run factors
it once (LAPACK zgttrf) and each step is one tridiagonal solve with those
factors (zgttrs).  Both are loaded on first use from scipy.linalg._flapack
alone, not with the rest of scipy.linalg (about 0.25 s and 18 MiB of imports).

Accuracy note: the discrete eigenvalue (2/h^2)(1 - cos(k pi h)) undershoots
(k pi / L)^2 by about lambda_k (k pi h)^2 / 12, so high modes accrue phase
error proportional to lambda_k T.  Keep compared modes low (k <= 4) or size
the grid accordingly.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass

import numpy as np

from .averaging import AveragingParams
from .errors import InvalidArgumentError, NumericError, _count, _positive, _vector
from .spectral import DIRICHLET, ModeCoefficients, project_from_grid, synthesize_on_grid, uniform_grid
from .spectral import _require_finite, _trusted


@dataclass(frozen=True, eq=False)
class FdConfig:
    """Grid parameters: M interior points (h = L/(M+1)) and time step dt."""

    interior_points: int
    dt: float
    L: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "interior_points", _count(self.interior_points, "interior_points", 3))
        object.__setattr__(self, "dt", _positive(self.dt, "dt"))
        object.__setattr__(self, "L", _positive(self.L, "L"))

    @property
    def h(self) -> float:
        return self.L / (self.interior_points + 1)


@dataclass(frozen=True, eq=False)
class GridState:
    """Interior samples; the boundary values are identically zero.  Built by
    hand, a read-only copy of finite values (else InvalidArgumentError)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _vector(self.values, complex, "grid state"))


def _rhs_apply(values: np.ndarray, c: complex) -> np.ndarray:
    # (I + i (dt/2) A_h) u
    out = (1.0 - 2.0 * c) * values
    out[:-1] += c * values[1:]
    out[1:] += c * values[:-1]
    return out


@functools.cache
def _lapack():
    import scipy  # its __init__ prepares scipy's bundled libraries on every platform
    name = "scipy.linalg._flapack"
    if name not in sys.modules:  # else scipy.linalg loaded it: the same routines
        spec = importlib.machinery.PathFinder.find_spec(name, [f"{p}/linalg" for p in scipy.__path__])
        if spec is None:
            raise ImportError(f"no module named {name!r}", name=name)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _cn_stepper(cfg: FdConfig):
    """The map u -> (I - i (dt/2) A_h)^{-1} (I + i (dt/2) A_h) u for cfg.

    A_h = tridiag(1, -2, 1)/h^2.  The left-hand matrix is factored here, once;
    each call of the returned step is one solve with those factors.
    """
    c = 1j * cfg.dt / (2.0 * cfg.h**2)
    off = np.full(cfg.interior_points - 1, -c)
    *lu, info = _lapack().zgttrf(off, np.full(cfg.interior_points, 1.0 + 2.0 * c), off)
    if info != 0:  # cannot happen for this matrix; guarded anyway
        raise NumericError(f"tridiagonal factorization failed: zero pivot at row {info}")

    def step(u: np.ndarray) -> np.ndarray:
        out, info = _lapack().zgttrs(*lu, _rhs_apply(u, c))
        if info != 0:
            raise NumericError(f"tridiagonal solve failed: LAPACK info {info}")
        return out

    return step


def _interior(state: GridState, cfg: FdConfig) -> np.ndarray:
    """The values of ``state``, which must hold one per interior point of cfg."""
    if state.values.size != cfg.interior_points:
        raise InvalidArgumentError(f"state length {state.values.size} != M = {cfg.interior_points}")
    return state.values


def cn_step(state: GridState, cfg: FdConfig) -> GridState:
    """One implicit-midpoint step of du/dt = i A_h u; unitary in discrete l2."""
    with np.errstate(all="ignore"):  # inf and NaN are named just below
        out = _cn_stepper(cfg)(_interior(state, cfg))
    _require_finite(out, None, "CN step", "grid point")
    return _trusted(GridState, values=out)


# the most steps a run may take, refused before the first: it bounds the run
# time (one step is about 72 us at M = 2048, so about 12 min), not memory
_MAX_STEPS = 10**7


def _step_count(T: float, dt: float) -> int:
    n = _count(float(np.rint(T / dt)), "round(T/dt)", 2, _MAX_STEPS)  # T / dt may overflow to inf
    if abs(n * dt - T) > 1.0e-9 * max(T, 1.0):
        raise InvalidArgumentError(f"T/dt = {T / dt:.6g} must be an integer number of steps")
    if n % 2 != 0:
        raise InvalidArgumentError(f"step count {n} must be even for Simpson pairing")
    return n


def oracle_time_average(xi_grid: GridState, params: AveragingParams, cfg: FdConfig) -> GridState:
    """Simpson accumulation of exp(r t_n) u(t_n) while stepping 0 -> T."""
    u = _interior(xi_grid, cfg)
    steps = _step_count(params.T, cfg.dt)
    w = cfg.dt / 3.0  # Simpson: w at both ends, 4w on odd steps, 2w on even ones
    step = _cn_stepper(cfg)
    acc = w * u.astype(complex)
    # inf and NaN last through the solves (finite pivots) and sums: checked once, after the last step
    with np.errstate(all="ignore"):
        for n in range(1, steps + 1):
            u = step(u)
            acc = acc + (w if n == steps else 4.0 * w if n % 2 else 2.0 * w) * np.exp(params.r * (n * cfg.dt)) * u
    _require_finite(acc, None, "oracle time average", "grid point")
    return _trusted(GridState, values=acc)


def oracle_mu_coeffs(
    xi: ModeCoefficients, params: AveragingParams, cfg: FdConfig
) -> ModeCoefficients:
    """Grid route to the averaged data: synthesize, step-and-accumulate, project.

    Requires a Dirichlet basis matching cfg.L with all modes resolved
    (N <= M/8).
    """
    basis = xi.basis
    if basis.kind != DIRICHLET:
        raise InvalidArgumentError("grid cross-check supports Dirichlet bases only")
    if abs(basis.domain_length - cfg.L) > 1.0e-12 * max(1.0, cfg.L):
        raise InvalidArgumentError(
            f"basis length {basis.domain_length} != grid length {cfg.L}"
        )
    if 8 * basis.mode_count > cfg.interior_points:
        raise InvalidArgumentError(
            f"{basis.mode_count} modes need at least {8 * basis.mode_count} interior "
            f"points, got {cfg.interior_points}"
        )
    full = uniform_grid(cfg.L, cfg.interior_points + 2)
    samples = synthesize_on_grid(xi, full)
    averaged = oracle_time_average(_trusted(GridState, values=samples[1:-1]), params, cfg)
    padded = np.zeros(cfg.interior_points + 2, dtype=complex)
    padded[1:-1] = averaged.values
    return project_from_grid(padded, basis, full)
