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

from .averaging import AveragingParams, _cexpm1, _factors, _ModeRecord
from .errors import DegenerateModeError, IllPosedError
from .evolve import Trajectory, _check_times, _require_finite, _trajectory, _trusted_trajectory
from .spectral import ModeCoefficients, SpectralBasis, _write_csv, make_custom_basis, unit_floor_shift

_TINY = np.finfo(float).tiny  # the smallest normal double


def _inverted_factors(basis: SpectralBasis, params: AveragingParams, allow_ill_posed: bool) -> _ModeRecord:
    """The _ModeRecord of (basis, params), once inversion may divide by its z."""
    rec = _factors(basis, params)
    if rec.degenerate.size:
        # checked before the ill-posedness gate: vanishing factors are the
        # stronger obstruction and exactly what the Re r = 0 regime produces
        raise DegenerateModeError(rec.degenerate + 1, rec.threshold)
    if params.r.real == 0.0 and not allow_ill_posed:
        raise IllPosedError(
            "Re r = 0: inversion is ill-posed (factors can vanish and the "
            "stability constant diverges); pass allow_ill_posed=True to force"
        )
    return rec


def recover_initial(
    mu: ModeCoefficients, params: AveragingParams, *, allow_ill_posed: bool = False
) -> ModeCoefficients:
    """Initial state with alpha_k = gamma_k / zeta_k."""
    z = _inverted_factors(mu.basis, params, allow_ill_posed).z
    return ModeCoefficients(mu.values / z, mu.basis)


def reconstruct_solution(
    mu: ModeCoefficients,
    params: AveragingParams,
    times,
    *,
    allow_ill_posed: bool = False,
) -> Trajectory:
    """Full trajectory through the recovered initial state.

    Equivalent to the closed form gamma_k (r - i lambda_k) exp(-i lambda_k t)
    / (exp((r - i lambda_k) T) - 1); the t = 0 slice equals recover_initial.
    """
    xi = recover_initial(mu, params, allow_ill_posed=allow_ill_posed)
    return _trajectory(xi.values, mu.basis, _check_times(times))


def _recover_shifted(mu: ModeCoefficients, params: AveragingParams, allow_ill_posed: bool):
    """Initial state of the problem translated so every eigenvalue is >= 1.

    With q = max(0, 1 - min lambda), solving with (r + i q, lambda + q) and
    mapping u(t) = exp(i q t) u_bar(t) reproduces the original problem.
    Returns q and u_bar(0) on the custom basis of the eigenvalues lambda + q.
    """
    q = unit_floor_shift(mu.basis.lambdas)
    shifted_basis = make_custom_basis(mu.basis.lambdas + q, mu.basis.domain_length, 0.0)
    xi_bar = recover_initial(
        ModeCoefficients(mu.values, shifted_basis),
        AveragingParams(params.r + 1j * q, params.T),
        allow_ill_posed=allow_ill_posed,
    )
    return q, xi_bar


def recover_via_shift(
    mu: ModeCoefficients, params: AveragingParams, *, allow_ill_posed: bool = False
) -> ModeCoefficients:
    """Alternate inversion route through the shifted problem; u(0) = u_bar(0)."""
    _, xi_bar = _recover_shifted(mu, params, allow_ill_posed)
    return ModeCoefficients(xi_bar.values, mu.basis)


def reconstruct_via_shift(
    mu: ModeCoefficients,
    params: AveragingParams,
    times,
    *,
    allow_ill_posed: bool = False,
) -> Trajectory:
    """Trajectory built on the shifted basis, mapped back by exp(i q t)."""
    q, xi_bar = _recover_shifted(mu, params, allow_ill_posed)
    u_bar = _trajectory(xi_bar.values, xi_bar.basis, _check_times(times))
    return _scaled(u_bar, 1j * q, mu.basis)


def _scaled(u: Trajectory, rate: complex, basis: SpectralBasis) -> Trajectory:
    """The states of ``u`` times exp(rate t), on ``basis``; NumericError
    names the first time whose state overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        states = np.exp(rate * u.times)[:, None] * u.states
    _require_finite(states, u.times)
    return _trusted_trajectory(u.times, states, basis)


@dataclass(frozen=True, eq=False)
class ConditioningReport:
    """Per-mode inversion diagnostics plus the global stability verdict.

    ``stability_bound`` is (1 + |r|) / |exp((Re r) T) - 1|, infinite in the
    ill-posed regime; it bounds the order-0 recovery norm against the order-2
    data norm on bases with eigenvalues >= 1 (apply the shift first
    otherwise).  ``psi`` is the classical per-mode amplification
    sqrt(|r|^2 + lambda_k^2) / |exp(r T) - 1|, reported for comparison with
    the provable ``inv_zeta_bound``.
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
    """|exp(x) - 1|, inf once exp(x) overflows (a quotient by it is then 0)."""
    try:
        return abs(math.expm1(x))
    except OverflowError:
        return math.inf


def stability_bound(params: AveragingParams) -> float:
    """(1 + |r|) / |exp((Re r) T) - 1|; requires Re r != 0."""
    if params.r.real == 0.0:
        raise IllPosedError("stability bound diverges at Re r = 0")
    return (1.0 + abs(params.r)) / _abs_expm1(params.r.real * params.T)


def _quotient(num: np.ndarray, den: float, T: float) -> np.ndarray:
    """num / den, where 0 / 0 takes its limit 1 / T: both vanish only at
    s_k = r - i lambda_k = 0, where zeta_k = T."""
    return num / den if den != 0.0 else np.where(num == 0.0, 1.0 / T, math.inf)


def conditioning_report(basis: SpectralBasis, params: AveragingParams) -> ConditioningReport:
    """Diagnostic report; never raises, even in the ill-posed regime."""
    lam = basis.lambdas
    rec = _factors(basis, params)
    denom_re = _abs_expm1(params.r.real * params.T)
    # |exp(rT) - 1| >= |exp(Re r T) - 1|, so it overflows whenever that does
    denom_full = (
        math.inf if denom_re == math.inf
        else abs(complex(_cexpm1(np.asarray(params.r * params.T))))
    )
    try:  # Python's float power, not numpy's square: their last bits differ
        r2 = abs(params.r) ** 2
    except OverflowError:
        r2 = math.inf
    with np.errstate(over="ignore"):
        inv_bound = _quotient(np.hypot(params.r.real, params.r.imag - lam), denom_re, params.T)
        # hypot only where the sum of squares overflows or underflows below
        # the smallest normal double: elsewhere it would move the last bit of
        # psi on about one mode in six
        sq = r2 + lam**2
        psi = np.sqrt(sq)
        lost = ~np.isfinite(psi) | (sq < _TINY)
        if lost.any():
            psi[lost] = np.hypot(abs(params.r), lam[lost])
        psi = _quotient(psi, denom_full, params.T)
        stab = (1.0 + abs(params.r)) / denom_re if denom_re > 0 else math.inf
    return ConditioningReport(
        basis=basis,
        params=params,
        zeta=rec.z,
        abs_zeta=rec.abs_z,
        inv_zeta_bound=inv_bound,
        psi=psi,
        min_abs_zeta=rec.min_abs,
        well_posed=params.r.real != 0.0,
        stability_bound=float(stab),
        q=unit_floor_shift(lam),
    )


def potential_shift_solution(
    mu: ModeCoefficients,
    params: AveragingParams,
    times,
    *,
    allow_ill_posed: bool = False,
) -> Trajectory:
    """w(t) = exp(r t) u(t): solution of the variant with potential -i r.

    w satisfies (1/i) dw/dt = A w - i r w with the same averaged data
    interpretation; each state is the reconstructed one scaled by the scalar
    exp(r t).
    """
    u = reconstruct_solution(mu, params, times, allow_ill_posed=allow_ill_posed)
    return _scaled(u, params.r, mu.basis)


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

