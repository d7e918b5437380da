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

from .averaging import AveragingParams, _cexpm1, _zeta_values
from .errors import DegenerateModeError, IllPosedError
from .evolve import Trajectory, propagate
from .spectral import ModeCoefficients, SpectralBasis, _write_csv, make_custom_basis, unit_floor_shift

# relative to the largest factor magnitude (floored at 1); below it, division
# is refused and the offending modes reported
_DEGENERATE_REL = 1.0e-14


def _inverted_factors(basis: SpectralBasis, params: AveragingParams, allow_ill_posed: bool):
    z = _zeta_values(params.r, params.T, basis.lambdas)
    absz = np.abs(z)
    threshold = _DEGENERATE_REL * max(1.0, float(absz.max(initial=0.0)))
    bad = np.flatnonzero(absz <= threshold)
    if bad.size:
        # checked before the ill-posedness gate: vanishing factors are the
        # stronger obstruction and exactly what the Re r = 0 regime produces
        raise DegenerateModeError(bad + 1, threshold)
    if params.r.real == 0.0 and not allow_ill_posed:
        raise IllPosedError(
            "Re r = 0: inversion is ill-posed (factors can vanish and the "
            "stability constant diverges); pass allow_ill_posed=True to force"
        )
    return z


def recover_initial(
    mu: ModeCoefficients, params: AveragingParams, *, allow_ill_posed: bool = False
) -> ModeCoefficients:
    """Initial state with alpha_k = gamma_k / zeta_k."""
    z = _inverted_factors(mu.basis, params, allow_ill_posed)
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
    t = np.asarray(times, dtype=float)
    return Trajectory(t, tuple(propagate(xi, tj) for tj in t))


@dataclass(frozen=True, eq=False)
class ShiftedProblem:
    """Spectral translation making every eigenvalue at least 1.

    q = max(0, 1 - min lambda), r_bar = r + i q, shifted eigenvalues
    lambda_k + q.  Solving with (r_bar, lambda + q) and mapping
    u(t) = exp(i q t) u_bar(t) reproduces the original problem.
    """

    q: float
    r_bar: complex
    shifted_lambdas: np.ndarray

    def __post_init__(self):
        lam = np.array(self.shifted_lambdas, dtype=float)
        lam.setflags(write=False)
        object.__setattr__(self, "shifted_lambdas", lam)


def shift_problem(basis: SpectralBasis, params: AveragingParams) -> ShiftedProblem:
    q = unit_floor_shift(basis.lambdas)
    return ShiftedProblem(q, params.r + 1j * q, basis.lambdas + q)


def _shifted_setup(basis, params):
    sp = shift_problem(basis, params)
    shifted_basis = make_custom_basis(sp.shifted_lambdas, basis.domain_length, 0.0)
    return sp, shifted_basis, AveragingParams(sp.r_bar, params.T)


def recover_via_shift(
    mu: ModeCoefficients, params: AveragingParams, *, allow_ill_posed: bool = False
) -> ModeCoefficients:
    """Alternate inversion route through the shifted problem; u(0) = u_bar(0)."""
    sp, shifted_basis, shifted_params = _shifted_setup(mu.basis, params)
    mu_bar = ModeCoefficients(mu.values, shifted_basis)
    xi_bar = recover_initial(mu_bar, shifted_params, allow_ill_posed=allow_ill_posed)
    return ModeCoefficients(xi_bar.values, mu.basis)


def reconstruct_via_shift(
    mu: ModeCoefficients,
    params: AveragingParams,
    times,
    *,
    allow_ill_posed: bool = False,
) -> Trajectory:
    """Trajectory built on the shifted basis, mapped back by exp(i q t)."""
    sp, shifted_basis, shifted_params = _shifted_setup(mu.basis, params)
    mu_bar = ModeCoefficients(mu.values, shifted_basis)
    xi_bar = recover_initial(mu_bar, shifted_params, allow_ill_posed=allow_ill_posed)
    t = np.asarray(times, dtype=float)
    states = tuple(
        ModeCoefficients(np.exp(1j * sp.q * tj) * propagate(xi_bar, tj).values, mu.basis)
        for tj in t
    )
    return Trajectory(t, states)


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

    @property
    def per_mode(self) -> list[dict]:
        return [
            {
                "k": k,
                "lambda": float(self.basis.lambdas[k - 1]),
                "zeta": complex(self.zeta[k - 1]),
                "abs_zeta": float(self.abs_zeta[k - 1]),
                "inv_zeta_bound": float(self.inv_zeta_bound[k - 1]),
                "psi": float(self.psi[k - 1]),
            }
            for k in range(1, self.basis.mode_count + 1)
        ]


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


def conditioning_report(basis: SpectralBasis, params: AveragingParams) -> ConditioningReport:
    """Diagnostic report; never raises, even in the ill-posed regime."""
    lam = basis.lambdas
    z = _zeta_values(params.r, params.T, lam)
    absz = np.abs(z)
    denom_re = _abs_expm1(params.r.real * params.T)
    # |exp(rT) - 1| >= |exp(Re r T) - 1|, so it overflows whenever that does
    denom_full = (
        math.inf if denom_re == math.inf
        else abs(complex(_cexpm1(np.asarray(params.r * params.T))))
    )
    with np.errstate(divide="ignore"):
        inv_bound = np.hypot(params.r.real, params.r.imag - lam) / denom_re
        psi = np.sqrt(abs(params.r) ** 2 + lam**2) / denom_full
        stab = (1.0 + abs(params.r)) / denom_re if denom_re > 0 else math.inf
    return ConditioningReport(
        basis=basis,
        params=params,
        zeta=z,
        abs_zeta=absz,
        inv_zeta_bound=inv_bound,
        psi=psi,
        min_abs_zeta=float(absz.min()),
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
    states = tuple(
        ModeCoefficients(np.exp(params.r * t) * s.values, mu.basis)
        for t, s in zip(u.times, u.states)
    )
    return Trajectory(u.times, states)


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

