"""Inversion of the time-average condition, conditioning diagnostics, shifts.

Given the averaged data mu = sum_k gamma_k v_k, the initial state is
alpha_k = gamma_k / zeta_k, provided no factor is numerically zero and the
weight exponent has nonzero real part.  The per-mode inverse obeys the
provable bound

    |1/zeta_k| <= sqrt((Re r)^2 + (Im r - lambda_k)^2) / |exp((Re r) T) - 1|,

which degenerates as Re r -> 0; the conditioning report quantifies this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averaging import AveragingParams, _cexpm1, _factors
from .errors import DegenerateModeError, IllPosedError
from .evolve import Trajectory, _check_times, _trajectory
from .spectral import ModeCoefficients, SpectralBasis, _floor_shift, _write_csv, make_custom_basis
from .spectral import _require_finite, _result, _trusted

_TINY = np.finfo(float).tiny  # the smallest normal double
_LOG_MAX = math.log(np.finfo(float).max)  # exp(x) overflows exactly where x > _LOG_MAX
_LOG_EPS = -38.0  # exp(x) < 2^-54 below it


def recover_initial(
    mu: ModeCoefficients, params: AveragingParams, *, allow_ill_posed: bool = False
) -> ModeCoefficients:
    """Initial state with alpha_k = gamma_k / zeta_k; allow_ill_posed=True, the
    package's one override of the Re r = 0 refusal, divides there too."""
    f = _factors(mu.basis, params)
    if f.degenerate.size:
        # checked before the ill-posedness gate: vanishing factors are the
        # stronger obstruction and exactly what the Re r = 0 regime produces
        raise DegenerateModeError(f.degenerate + 1, f.threshold)
    if params.r.real == 0.0 and not allow_ill_posed:
        raise IllPosedError(
            "Re r = 0: inversion is ill-posed (factors can vanish and the "
            "stability constant diverges); recover_initial(..., allow_ill_posed=True) forces it"
        )
    return _result(mu.values / f.values, mu.basis, "recovered state")


def reconstruct_solution(mu: ModeCoefficients, params: AveragingParams, times) -> Trajectory:
    """Full trajectory through the recovered initial state.

    Equivalent to the closed form gamma_k (r - i lambda_k) exp(-i lambda_k t)
    / (exp((r - i lambda_k) T) - 1); the t = 0 slice equals recover_initial.
    """
    xi = recover_initial(mu, params)
    return _trajectory(xi.values, mu.basis, _check_times(times))


def recover_via_shift(mu: ModeCoefficients, params: AveragingParams) -> ModeCoefficients:
    """Alternate inversion route through the problem translated so every
    eigenvalue is >= 1.

    With q = unit_floor_shift(lambda), solving with (r + i q, lambda + q) and
    mapping u(t) = exp(i q t) u_bar(t) reproduces the original problem, so
    u(0) = u_bar(0).
    """
    q = _floor_shift(mu.basis.lambdas[0])
    shifted_basis = make_custom_basis(mu.basis.lambdas + q, mu.basis.domain_length, 0.0)
    xi_bar = recover_initial(
        _trusted(ModeCoefficients, values=mu.values, basis=shifted_basis),
        AveragingParams(params.r + 1j * q, params.T),
    )
    return _trusted(ModeCoefficients, values=xi_bar.values, basis=mu.basis)


@dataclass(frozen=True, eq=False)
class ConditioningReport:
    """Per-mode inversion diagnostics plus the global stability verdict.

    ``stability_bound`` is (1 + |r|) / |exp((Re r) T) - 1|, infinite in the
    ill-posed regime; it bounds the order-0 recovery norm against the order-2
    data norm on bases with eigenvalues >= 1 (``recover_via_shift`` inverts
    through that shift otherwise).  ``psi`` is the classical per-mode
    amplification sqrt(|r|^2 + lambda_k^2) / |exp(r T) - 1|, reported for
    comparison with the provable ``inv_zeta_bound``.
    """

    basis: SpectralBasis
    zeta: np.ndarray
    abs_zeta: np.ndarray
    inv_zeta_bound: np.ndarray
    psi: np.ndarray
    min_abs_zeta: float
    well_posed: bool
    stability_bound: float
    q: float


def _over_expm1(num, half, z, expm1, T: float):
    """num / |expm1(z)|, num >= 0 a float or one per mode, z = r T (expm1 = _cexpm1) or its
    real part (math.expm1).  Where exp(Re z) overflows: num exp(-Re z), in two halves so
    that nothing underflows before the result does; below 2^-54: num, as the denominator
    rounds to 1 whatever Im z is; elsewhere the plain quotient, whose 0 / 0 (only at
    s_k = r - i lambda_k = 0, zeta_k = T) takes its limit 1 / T.  half is num rebuilt from
    r / 2 and lambda / 2 where num can overflow, else None: where num does, twice its quotient."""
    if half is not None:
        whole = _over_expm1(num, None, z, expm1, T)
        return np.where(num < math.inf, whole, 2.0 * _over_expm1(half, None, z, expm1, T))
    x = float(z.real)
    if x > _LOG_MAX:
        e = math.exp(-x / 2)
        return num * e * e
    if x < _LOG_EPS:
        return num
    den = abs(expm1(z))
    return num / den if den != 0.0 else np.where(num == 0.0, 1.0 / T, math.inf)


def stability_bound(params: AveragingParams) -> float:
    """(1 + |r|) / |exp((Re r) T) - 1|; requires Re r != 0."""
    if params.r.real == 0.0:
        raise IllPosedError("stability bound diverges at Re r = 0")
    # |r / 2| cannot overflow, and doubling it is exact: |r|, or inf where that overflows
    h, x = abs(params.r / 2), params.r.real * params.T
    num = 1.0 + 2.0 * h
    return float(_over_expm1(num, None if num < math.inf else 0.5 + h, x, math.expm1, params.T))


def conditioning_report(basis: SpectralBasis, params: AveragingParams) -> ConditioningReport:
    """Diagnostic report; never raises, even in the ill-posed regime."""
    lam = basis.lambdas
    f = _factors(basis, params)
    r, T = params.r, params.T
    # no numerator overflows while both parts of r and every |lambda| stay below 2^511
    big = max(abs(r.real), abs(r.imag), -lam[0], lam[-1]) >= 2.0**511  # lam is nondecreasing
    # numpy's scalar abs and power: Python's bits, but inf where Python's raise
    with np.errstate(all="ignore"):
        half = np.hypot(r.real / 2, r.imag / 2 - lam / 2) if big else None
        inv_bound = _over_expm1(np.hypot(r.real, r.imag - lam), half, r.real * T, math.expm1, T)
        abs_r = abs(np.complex128(r))
        r2 = abs_r**2  # a scalar power, not np.square: their last bits differ
        # hypot only where the sum of squares underflows below the smallest
        # normal double: elsewhere it would move the last bit of psi on about
        # one mode in six
        sq = r2 + lam**2
        psi = np.sqrt(sq)
        if not sq.min() >= _TINY:
            psi[sq < _TINY] = np.hypot(abs_r, lam[sq < _TINY])
        psi = _over_expm1(psi, np.hypot(abs(r / 2), lam / 2) if big else None, np.complex128(r * T), _cexpm1, T)
    return ConditioningReport(
        basis=basis,
        zeta=f.values,
        abs_zeta=f.abs_values,
        inv_zeta_bound=inv_bound,
        psi=psi,
        min_abs_zeta=f.min_abs,
        well_posed=params.r.real != 0.0,
        stability_bound=stability_bound(params) if params.r.real != 0.0 else math.inf,
        q=_floor_shift(lam[0]),
    )


def potential_shift_solution(mu: ModeCoefficients, params: AveragingParams, times) -> Trajectory:
    """w(t) = exp(r t) u(t): solution of the variant with potential -i r.

    w satisfies (1/i) dw/dt = A w - i r w with the same averaged data
    interpretation; each state is the reconstructed one scaled by the scalar
    exp(r t).
    """
    u = reconstruct_solution(mu, params, times)
    with np.errstate(all="ignore"):
        states = np.exp(params.r * u.times)[:, None] * u.states
    _require_finite(states, u.times)  # NumericError names the first overflowing time
    return _trusted(Trajectory, times=u.times, states=states, basis=mu.basis)


def report_to_csv(report: ConditioningReport, path) -> None:
    """Rows k,lambda,abs_zeta,inv_zeta_bound,psi through the shared 17g writer."""
    b = report.basis
    _write_csv(path, "k,lambda,abs_zeta,inv_zeta_bound,psi", [
        range(1, b.mode_count + 1), b.lambdas, report.abs_zeta, report.inv_zeta_bound, report.psi,
    ])
