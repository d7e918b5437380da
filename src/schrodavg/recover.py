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
from .evolve import Trajectory, _check_times, _require_finite, _trajectory, _trusted_trajectory
from .spectral import ModeCoefficients, SpectralBasis, _floor_shift, _write_csv, make_custom_basis

_TINY = np.finfo(float).tiny  # the smallest normal double
_LOG_MAX = math.log(np.finfo(float).max)  # exp(x) overflows exactly where x > _LOG_MAX


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
    return ModeCoefficients(mu.values / f.values, mu.basis)


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
        ModeCoefficients(mu.values, shifted_basis),
        AveragingParams(params.r + 1j * q, params.T),
    )
    return ModeCoefficients(xi_bar.values, mu.basis)


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
    params: AveragingParams
    zeta: np.ndarray
    abs_zeta: np.ndarray
    inv_zeta_bound: np.ndarray
    psi: np.ndarray
    min_abs_zeta: float
    well_posed: bool
    stability_bound: float
    q: float


def _abs_expm1(x: float) -> float:
    """|exp(x) - 1|, inf once exp(x) overflows."""
    return abs(math.expm1(x)) if x <= _LOG_MAX else math.inf


def _abs(r: complex) -> float:
    """|r| as Python's complex abs takes it, but inf where that raises OverflowError."""
    try:
        return abs(complex(r))
    except OverflowError:
        return math.inf


def stability_bound(params: AveragingParams) -> float:
    """(1 + |r|) / |exp((Re r) T) - 1|; requires Re r != 0."""
    if params.r.real == 0.0:
        raise IllPosedError("stability bound diverges at Re r = 0")
    x, a = params.r.real * params.T, _abs(params.r)
    denom = _abs_expm1(x)  # 0 once Re r T underflows
    if x > 0 and math.inf in (a, denom):  # in logs, log|r| from halved parts
        num = math.log1p(a) if a < math.inf else math.log(_abs(params.r / 2)) + math.log(2.0)
        den = x + math.log1p(-math.exp(-x)) if denom == math.inf else math.log(denom)
        return math.exp(num - den) if num - den <= _LOG_MAX else math.inf
    return (1.0 + a) / denom if denom > 0 else math.inf


def _quotient(num: np.ndarray, den: float, T: float) -> np.ndarray:
    """num / den, where 0 / 0 takes its limit 1 / T: both vanish only at
    s_k = r - i lambda_k = 0, where zeta_k = T."""
    return num / den if den != 0.0 else np.where(num == 0.0, 1.0 / T, math.inf)


def conditioning_report(basis: SpectralBasis, params: AveragingParams) -> ConditioningReport:
    """Diagnostic report; never raises, even in the ill-posed regime."""
    lam = basis.lambdas
    f = _factors(basis, params)
    denom_re = _abs_expm1(params.r.real * params.T)
    # |exp(rT) - 1| >= |exp(Re r T) - 1|, so it overflows whenever that does
    denom_full = math.inf if denom_re == math.inf else _abs(_cexpm1(np.complex128(params.r * params.T)))
    abs_r = _abs(params.r)
    try:  # Python's float power, not numpy's square: their last bits differ
        r2 = abs_r ** 2
    except OverflowError:
        r2 = math.inf
    with np.errstate(over="ignore"):
        inv_bound = _quotient(np.hypot(params.r.real, params.r.imag - lam), denom_re, params.T)
        # hypot only where the sum of squares overflows or underflows below
        # the smallest normal double: elsewhere it would move the last bit of
        # psi on about one mode in six
        sq = r2 + lam**2
        psi = np.sqrt(sq)
        if not (sq.min() >= _TINY and psi.max() < math.inf):
            lost = ~np.isfinite(psi) | (sq < _TINY)
            psi[lost] = np.hypot(abs_r, lam[lost])
        psi = _quotient(psi, denom_full, params.T)
    return ConditioningReport(
        basis=basis,
        params=params,
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
    with np.errstate(over="ignore", invalid="ignore"):
        states = np.exp(params.r * u.times)[:, None] * u.states
    _require_finite(states, u.times)  # NumericError names the first overflowing time
    return _trusted_trajectory(u.times, states, mu.basis)


def report_to_csv(report: ConditioningReport, path) -> None:
    """Rows k,lambda,abs_zeta,inv_zeta_bound,psi through the shared 17g writer."""
    b = report.basis
    _write_csv(path, "k,lambda,abs_zeta,inv_zeta_bound,psi", [
        range(1, b.mode_count + 1), b.lambdas, report.abs_zeta, report.inv_zeta_bound, report.psi,
    ])


def report_summary(report: ConditioningReport) -> dict:
    """JSON-safe summary {well_posed, min_abs_zeta, stability_bound, q}."""
    return {
        "well_posed": report.well_posed,
        "min_abs_zeta": report.min_abs_zeta if math.isfinite(report.min_abs_zeta) else None,
        "stability_bound": report.stability_bound if math.isfinite(report.stability_bound) else None,
        "q": report.q,
    }

