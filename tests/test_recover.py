"""Inversion, shifted-path equivalence, conditioning, potential-shift variant."""

import hashlib
import math

import mpmath
import numpy as np
import pytest

from conftest import cexpm1_two_reductions, power_law_state
from schrodavg import (
    AveragingParams,
    DegenerateModeError,
    IllPosedError,
    InvalidArgumentError,
    ModeCoefficients,
    NumericError,
    apply_time_average,
    conditioning_report,
    make_custom_basis,
    make_dirichlet_basis,
    make_periodic_basis,
    potential_shift_solution,
    propagate,
    reconstruct_solution,
    recover_initial,
    recover_via_shift,
    sample_trajectory,
    sobolev_norm,
    stability_bound,
    zeta_factor,
    zeta_factors,
)
from schrodavg.averaging import _cexpm1
from schrodavg.recover import _LOG_EPS, _LOG_MAX, _TINY, report_to_csv

PARAMS = AveragingParams(1.0, 1.0)


def rel_h(a, b):
    return np.linalg.norm(a.values - b.values) / np.linalg.norm(b.values)


class TestRecoverInitial:
    def test_round_trip_identity(self):
        b = make_dirichlet_basis(1.0, 40, 0.0)
        for seed in range(6):
            xi = power_law_state(b, seed, 2.0)
            back = recover_initial(apply_time_average(xi, PARAMS), PARAMS)
            assert rel_h(back, xi) < 1e-12

    def test_round_trip_other_direction(self):
        b = make_dirichlet_basis(1.0, 40, 0.0)
        mu = power_law_state(b, 21, 3.0)
        again = apply_time_average(recover_initial(mu, PARAMS), PARAMS)
        assert rel_h(again, mu) < 1e-12

    def test_reciprocal_of_zero_mode_factor(self):
        b = make_custom_basis([0.0])
        out = recover_initial(ModeCoefficients([1.0], b), PARAMS)
        assert out.values[0] == pytest.approx(0.5819767068693265, rel=1e-14)

    def test_full_revolution_degenerates_every_mode(self):
        b = make_dirichlet_basis(1.0, 7, 0.0)
        mu = power_law_state(b, 1, 3.0)
        with pytest.raises(DegenerateModeError) as info:
            recover_initial(mu, AveragingParams(0.0, 2.0 / np.pi))
        assert info.value.modes == [1, 2, 3, 4, 5, 6, 7]
        for k in range(1, 8):
            assert str(k) in str(info.value)

    def test_zero_real_part_refused_without_override(self):
        b = make_dirichlet_basis(1.0, 4, 0.0)
        mu = power_law_state(b, 2, 3.0)
        with pytest.raises(IllPosedError):
            recover_initial(mu, AveragingParams(1.0j, 1.0))

    def test_override_allows_nondegenerate_imaginary_weight(self):
        b = make_dirichlet_basis(1.0, 4, 0.0)
        params = AveragingParams(1.0j, 1.0)
        xi = power_law_state(b, 3, 2.0)
        back = recover_initial(apply_time_average(xi, params), params, allow_ill_posed=True)
        assert rel_h(back, xi) < 1e-12

    def test_unique_preimage(self):
        # diagonal map with nonzero entries: distinct data, distinct states
        b = make_dirichlet_basis(1.0, 12, 0.0)
        rng = np.random.default_rng(30)
        for _ in range(10):
            m1 = ModeCoefficients(rng.normal(size=12) + 1j * rng.normal(size=12), b)
            m2 = ModeCoefficients(m1.values + rng.normal(size=12) * 1e-3, b)
            a1 = recover_initial(m1, PARAMS)
            a2 = recover_initial(m2, PARAMS)
            assert not np.array_equal(a1.values, a2.values)


class TestReconstruct:
    def test_matches_explicit_expansion(self):
        # independent route: gamma_k (r - i lam_k) exp(-i lam_k t)
        #                    / (exp((r - i lam_k) T) - 1)
        b = make_dirichlet_basis(1.0, 10, 0.0)
        mu = power_law_state(b, 4, 3.0)
        times = np.linspace(0.0, 1.0, 9)
        traj = reconstruct_solution(mu, PARAMS, times)
        s = PARAMS.r - 1j * b.lambdas
        for t, state in zip(times, traj.states):
            explicit = mu.values * s * np.exp(-1j * b.lambdas * t) / (np.exp(s * PARAMS.T) - 1.0)
            assert np.abs(state - explicit).max() < 1e-12

    def test_time_zero_slice_equals_recovery(self):
        b = make_dirichlet_basis(1.0, 8, 0.0)
        mu = power_law_state(b, 5, 3.0)
        traj = reconstruct_solution(mu, PARAMS, np.linspace(0.0, 1.0, 5))
        assert np.array_equal(traj.states[0], recover_initial(mu, PARAMS).values)

    def test_single_zero_mode_at_horizon(self):
        b = make_custom_basis([0.0])
        traj = reconstruct_solution(ModeCoefficients([1.0], b), PARAMS, [0.0, 1.0])
        assert traj.states[1, 0] == pytest.approx(0.5819767068693265, rel=1e-14)

    def test_large_trajectory_bytes_pinned(self):
        # each row is values * exp(-i lambda t), in that operand order; at
        # N >= 16384 an outer-product phase lets numpy's temporary elision
        # compute exp * values instead, which changes last bits (the 4096-mode
        # CLI digests cannot see that)
        b = make_dirichlet_basis(1.0, 16384)
        mu = power_law_state(b, 11, 3.0)
        times = np.linspace(0.0, 1.0, 33)
        traj = reconstruct_solution(mu, AveragingParams(0.5 + 0.25j, 1.0), times)
        digest = hashlib.sha256(traj.states.tobytes()).hexdigest()
        assert digest == "9ae7fd1fe309f9992d99e83e6d53f0afde7371d5e37c4dfccb25dfe0f01a2996"

    def test_periodic_trajectory_bytes_pinned(self):
        # recorded before eigenvalues shared by the modes +-m were evaluated
        # once: at N = 2^16 the rows are filled on threads where there are
        # several CPUs, and later rows fold the phase (lambda t > 1e8)
        b = make_periodic_basis(1.0, 1 << 16)
        mu = power_law_state(b, 16, 3.0)
        times = np.linspace(0.0, 1.0, 33)
        traj = reconstruct_solution(mu, AveragingParams(0.5 + 0.25j, 1.0), times)
        digest = hashlib.sha256(traj.states.tobytes()).hexdigest()
        assert digest == "4f6f44f3ffa68cf68801a80c73d212f9b2a80686550f546b2636b9fd201b2674"

    def test_bad_times_rejected_by_every_route(self):
        b = make_dirichlet_basis(1.0, 4, 0.0)
        mu = power_law_state(b, 12, 3.0)
        for route in (reconstruct_solution, potential_shift_solution):
            for times in (0.5, [], [0.0, np.inf], [1.0, 0.0]):
                with pytest.raises(InvalidArgumentError):
                    route(mu, PARAMS, times)

    def test_satisfies_averaging_condition(self):
        # reconstructed trajectory averaged back gives the data (t-samples
        # fine enough for Simpson to certify independently is covered by the
        # grid pipeline; here the algebraic route suffices)
        b = make_dirichlet_basis(1.0, 6, 0.0)
        mu = power_law_state(b, 6, 3.0)
        xi = recover_initial(mu, PARAMS)
        assert rel_h(apply_time_average(xi, PARAMS), mu) < 1e-12


class TestShiftPath:
    def test_already_normalized_basis_keeps_r(self):
        b = make_dirichlet_basis(1.0, 3, 0.0)
        assert conditioning_report(b, PARAMS).q == 0.0

    def test_negative_spectrum_shift_amount(self):
        b = make_custom_basis([-2.0, 0.5, 3.0])
        assert conditioning_report(b, PARAMS).q == 3.0

    def test_translation_leaves_factors_unchanged(self):
        # r - i lam is invariant under (r, lam) -> (r + iq, lam + q)
        for lam in (-2.0, 0.5, 3.0):
            direct = zeta_factor(1.0, 1.0, lam)
            shifted = zeta_factor(complex(1.0, 3.0), 1.0, lam + 3.0)
            assert shifted == pytest.approx(direct, rel=1e-13)

    def test_recovery_agrees_with_direct_route(self):
        # the periodic basis has lambda_min = 0, so q = 1
        for b in (make_custom_basis([-2.0, 0.5, 3.0]), make_periodic_basis(1.0, 5)):
            for seed in range(10):
                mu = power_law_state(b, seed, 3.0)
                direct = recover_initial(mu, PARAMS)
                via = recover_via_shift(mu, PARAMS)
                assert rel_h(via, direct) < 1e-12

    @pytest.mark.parametrize("lam_min", [-1e16, -2.0**53])
    def test_recovery_on_a_spectrum_beyond_2_53(self, lam_min):
        # 1 - lam_min rounds to -lam_min, so the shift must be raised above it
        # (the basis was refused); these eigenvalues shift without rounding,
        # and Re r T = 10 keeps every |zeta_k| ~ e^10 / 1e16 above the threshold
        b = make_custom_basis([lam_min, lam_min + 2.0, lam_min + 4.0])
        params = AveragingParams(10.0, 1.0)
        xi = power_law_state(b, 3, 2.0)
        mu = apply_time_average(xi, params)
        via = recover_via_shift(mu, params)
        assert np.array_equal(via.values, recover_initial(mu, params).values)
        assert rel_h(via, xi) < 1e-12


class TestConditioningReport:
    def test_ill_posed_full_revolution(self):
        b = make_dirichlet_basis(1.0, 16, 0.0)
        rep = conditioning_report(b, AveragingParams(0.0, 2.0 / np.pi))
        assert rep.well_posed is False
        assert rep.min_abs_zeta <= 1e-14
        assert math.isinf(rep.stability_bound)

    def test_well_posed_when_real_part_nonzero(self):
        b = make_periodic_basis(1.0, 5)
        rep = conditioning_report(b, PARAMS)
        assert rep.well_posed is True
        assert rep.q == 1.0

    def test_min_factor_at_second_mode(self):
        b = make_dirichlet_basis(1.0, 2, 0.0)
        rep = conditioning_report(b, PARAMS)
        assert int(np.argmin(rep.abs_zeta)) == 1
        assert rep.min_abs_zeta == rep.abs_zeta[1]

    def test_bound_dominates_actual_inverse(self):
        rng = np.random.default_rng(31)
        b = make_dirichlet_basis(1.0, 24, 0.0)
        for _ in range(40):
            params = AveragingParams(
                complex(rng.uniform(0.1, 3) * rng.choice([-1, 1]), rng.uniform(-15, 15)),
                rng.uniform(0.1, 4.0),
            )
            rep = conditioning_report(b, params)
            assert np.all(rep.inv_zeta_bound * rep.abs_zeta >= 1.0 - 1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("T", [1.0, 2.5])
    def test_vanishing_exponent_takes_the_limit(self, T):
        # s_k = r - i lambda_k = 0 makes both quotients 0/0; zeta_k = T there,
        # so the limit 1/T is written, and every other mode keeps its value
        b = make_periodic_basis(1.0, 4)
        rep = conditioning_report(b, AveragingParams(0.0, T))
        assert rep.abs_zeta[0] == T
        assert rep.inv_zeta_bound[0] == rep.psi[0] == 1.0 / T
        assert np.all(np.isinf(rep.inv_zeta_bound[1:])) and np.all(np.isinf(rep.psi[1:]))
        lam = b.lambdas[1]
        rep = conditioning_report(b, AveragingParams(1j * lam, T))  # s_2 = 0 only
        assert rep.abs_zeta[1] == pytest.approx(T, rel=1e-15)
        assert rep.inv_zeta_bound[1] == 1.0 / T
        want_psi = math.sqrt(2.0) * lam / abs(np.exp(1j * lam * T) - 1.0)  # 0/0 at r = 0 only
        assert rep.psi[1] == pytest.approx(want_psi, rel=1e-12)
        assert np.isinf(rep.inv_zeta_bound[0])

    def test_csv(self, tmp_path):
        b = make_dirichlet_basis(1.0, 3, 0.0)
        rep = conditioning_report(b, PARAMS)
        path = tmp_path / "cond.csv"
        report_to_csv(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,lambda,abs_zeta,inv_zeta_bound,psi"
        assert len(lines) == 4

    def test_overflowing_weight_gives_zero_bounds(self):
        # exp(Re r T) = exp(800) overflows a double; the bounds divide by it,
        # so they are 0, and the report must not raise
        b = make_dirichlet_basis(1.0, 8)
        rep = conditioning_report(b, AveragingParams(800.0, 1.0))
        assert rep.well_posed
        assert rep.stability_bound == 0.0
        assert np.all(rep.inv_zeta_bound == 0.0)
        assert np.all(rep.psi == 0.0)

    @pytest.mark.filterwarnings("error")
    def test_psi_finite_where_lambda_squared_overflows(self):
        # lambda^2 = 1e600 overflows, while psi itself is about 1e300
        b = make_custom_basis([1.0, 4.0, 1e300])
        rep = conditioning_report(b, PARAMS)
        assert np.all(np.isfinite(rep.psi))
        assert rep.psi[2] == pytest.approx(1e300 / (np.e - 1.0), rel=1e-15)
        assert rep.psi[0] == pytest.approx(math.sqrt(2.0) / math.expm1(1.0), rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_psi_finite_where_r_squared_overflows(self):
        # |r|^2 = 1e400 overflows a Python float, which raises instead of
        # giving inf; the report still never raises
        rep = conditioning_report(make_dirichlet_basis(1.0, 3), AveragingParams(1e200j, 1.0))
        assert np.all(np.isfinite(rep.psi))
        assert rep.psi[0] == pytest.approx(1e200 / abs(np.expm1(1e200j)), rel=1e-15)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r", [1e-170, 1e-300])
    def test_psi_where_the_sum_of_squares_underflows(self, r):
        # |r|^2 + lambda_1^2 = r^2 underflows to 0 at lambda_1 = 0; psi_1 =
        # |r| / |exp(rT) - 1| = 1, as inv_zeta_bound is, and the other modes
        # keep the bits of the plain square root
        b = make_periodic_basis(1.0, 4)
        rep = conditioning_report(b, AveragingParams(r, 1.0))
        assert rep.psi[0] == rep.inv_zeta_bound[0] == 1.0
        denom = abs(complex(_cexpm1(np.asarray(complex(r)))))
        assert np.array_equal(rep.psi[1:], np.sqrt(r**2 + b.lambdas[1:] ** 2) / denom)

    # psi as it was taken: the hypot mask built on every call, and |exp(rT) - 1|
    # from 0-d arrays with cos and sin reduced apart
    def test_psi_bits_as_masked_form_with_zero_d_denominator(self):
        rng = np.random.default_rng(31)
        b = make_periodic_basis(1.0, 16)
        lam = b.lambdas
        draws = [(complex(rng.uniform(-2.0, 2.0), rng.uniform(-60.0, 60.0)), rng.uniform(0.1, 3.0))
                 for _ in range(300)]
        for r, T in draws + [(1e-170, 1.0), (1e-300 + 2e-300j, 0.5), (1e150 + 1e150j, 1e-150), (0.5 - 0.0j, 1.5)]:
            rep = conditioning_report(b, AveragingParams(r, T))
            abs_r = abs(r)
            sq = abs_r**2 + lam**2
            psi = np.sqrt(sq)
            lost = ~np.isfinite(psi) | (sq < np.finfo(float).tiny)
            psi[lost] = np.hypot(abs_r, lam[lost])
            want = psi / abs(complex(cexpm1_two_reductions(np.asarray(r * T))))
            assert np.array_equal(rep.psi, want), (r, T)


class TestStabilityBound:
    def test_growing_weight(self):
        assert stability_bound(PARAMS) == pytest.approx(1.163953413738653, rel=1e-15)

    def test_decaying_weight(self):
        assert stability_bound(AveragingParams(-1.0, 1.0)) == pytest.approx(
            3.163953413738653, rel=1e-15
        )

    def test_imaginary_weight_rejected(self):
        with pytest.raises(IllPosedError):
            stability_bound(AveragingParams(1.0j, 1.0))

    def test_overflowing_weight_gives_zero(self):
        assert stability_bound(AveragingParams(800.0, 1.0)) == 0.0
        assert stability_bound(AveragingParams(400.0, 2.0)) == 0.0

    def test_underflowing_exponent_gives_inf(self):
        # Re r T underflows to 0, so exp(Re r T) - 1 is 0: the bound and the
        # report's value are both infinite, not a ZeroDivisionError
        params = AveragingParams(1e-320, 1e-10)
        assert stability_bound(params) == math.inf
        assert conditioning_report(make_dirichlet_basis(1.0, 4), params).stability_bound == math.inf

    # |r| overflows; |r| overflows while exp(Re r T) does not; exp(Re r T)
    # overflows and the bound is not 0; two ordinary pairs; exp(Re r T)
    # overflows at a real r; and Im r T overflows where exp(Re r T) underflows
    EXTREME = [
        (1.7e308 + 1.7e308j, 1.0),
        (1e301 + 1.7976931348623157e308j, 7e-299),
        (1e308 + 1.7e308j, 7e-306),
        (710.0 + 1e300j, 1.0),
        (-1e308 + 1e308j, 1.0),
        (1.0 + 2.0j, 1.0),
        (710.0, 1.0),
        (-2.700099387594259e307 - 1.5653259326782362e308j, 3.495765722651966),
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r, T", EXTREME)
    def test_matches_mpmath_where_abs_r_or_the_weight_overflows(self, r, T):
        params = AveragingParams(r, T)
        with mpmath.workdps(50):
            x = mpmath.mpf(params.r.real) * mpmath.mpf(params.T)
            ref = (1 + mpmath.hypot(params.r.real, params.r.imag)) / abs(mpmath.expm1(x))
            expected = float(ref)  # 0 or inf where the bound leaves the doubles
        assert stability_bound(params) == pytest.approx(expected, rel=1e-12, abs=0.0)
        # the per-mode bounds take the same quotient
        for basis in (make_dirichlet_basis(1.0, 8), make_custom_basis([1.0, 1e300])):
            rep = conditioning_report(basis, params)
            for got, (want, budget) in [(rep.inv_zeta_bound, _mp_inv_zeta_bound(basis, params)),
                                        (rep.psi, _mp_psi(basis, params))]:
                assert all(_close(g, w, budget) for g, w in zip(got, want)), (basis.kind, got)

    @pytest.mark.parametrize("r, T", EXTREME[:4])
    def test_report_does_not_raise_where_abs_r_overflows(self, r, T):
        params = AveragingParams(r, T)
        rep = conditioning_report(make_dirichlet_basis(1.0, 8), params)
        assert rep.stability_bound == stability_bound(params)

    @pytest.mark.filterwarnings("error")
    def test_report_at_huge_r_returns_without_a_warning(self):
        # the factors overflow (expm1, exp) and so does their quotient
        # (divide), inside the kernel's np.errstate: no warning leaves it
        rep = conditioning_report(make_dirichlet_basis(1.0, 8), AveragingParams(1e308 + 1e308j, 1.0))
        assert rep.well_posed and math.isnan(rep.min_abs_zeta)

    # exp(800) overflows; Im(s) T overflows before the split; exp(710) overflows
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [
        lambda: zeta_factors(make_dirichlet_basis(1.0, 8), AveragingParams(800.0, 1.0)).values,
        lambda: zeta_factors(make_custom_basis([1.0, 1e308]), AveragingParams(1.0, 10.0)).values,
        lambda: conditioning_report(make_custom_basis([1.0, 1e300]), AveragingParams(710.0, 1.0)).zeta,
    ], ids=["zeta-r800", "zeta-lambda1e308", "report-r710"])
    def test_nan_factors_come_without_a_warning(self, call):
        assert np.isnan(call()).any()

    def test_bits_unchanged_in_the_normal_range(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            r = complex(*(rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 2, 2)))
            T = 10.0 ** rng.uniform(-3, 0)
            if r.real != 0.0:
                expected = (1.0 + abs(r)) / abs(math.expm1(r.real * T))
                assert stability_bound(AveragingParams(r, T)) == expected


def _python_abs(r) -> float:
    """|r| by Python's complex abs, inf where that raises OverflowError.  A
    NaN part gives NaN through math.hypot: there Python's abs returns without
    setting errno, so a stale ERANGE from an earlier libm call made it raise.
    Elsewhere math.hypot is no reference, since it is not libm's hypot, which
    both Python's and numpy's scalar abs call: their last bits differ on 13
    of the 13 234 finite values that these tests take |.| of."""
    if math.isnan(r.real) or math.isnan(r.imag):
        return math.hypot(r.real, r.imag)
    try:
        return abs(complex(r))
    except OverflowError:
        return math.inf


def _ordinary(params: AveragingParams) -> bool:
    """Whether exp(Re r T) takes the plain quotient: neither overflows nor
    falls below 2^-54."""
    return _LOG_EPS <= params.r.real * params.T <= _LOG_MAX


def _python_abs_stability_bound(params: AveragingParams) -> float:
    """stability_bound's plain quotient with |r| through _python_abs."""
    denom = abs(math.expm1(params.r.real * params.T))
    return (1.0 + _python_abs(params.r)) / denom if denom > 0 else math.inf


def _python_abs_bounds(basis, params):
    """conditioning_report's plain (inv_zeta_bound, psi), with |r|, |r|^2 and
    |exp(rT) - 1| through _python_abs and Python's float power, each with the
    modes where the plain quotient runs: its numerator is finite and exp(Re r T)
    neither overflows nor falls below 2^-54."""
    r, lam = params.r, basis.lambdas
    if not _ordinary(params):  # no mode takes the plain quotient
        return [(np.zeros(lam.size), np.zeros(lam.size, bool))] * 2
    abs_r = _python_abs(r)
    try:
        r2 = abs_r**2
    except OverflowError:
        r2 = math.inf
    with np.errstate(all="ignore"):
        inv = np.hypot(r.real, r.imag - lam)
        sq = r2 + lam**2
        psi = np.sqrt(sq)
        psi[sq < _TINY] = np.hypot(abs_r, lam[sq < _TINY])
        return [(inv / abs(math.expm1(r.real * params.T)), inv < math.inf),
                (psi / _python_abs(_cexpm1(np.complex128(r * params.T))), psi < math.inf)]


def _mp_over_expm1(params: AveragingParams, nums, phase: bool = False):
    """nums(Re r, Im r) / |exp(z) - 1| at 50 digits, z = r T from the exact r
    and T (its real part alone unless ``phase``), and the relative budget of a
    quotient by that denominator: 16 ulps, plus the denominator's first-order
    change where Re z and Im z each move by the rounding of their doubles,
    2^-53 of themselves (|Re z| 2^-53 where exp(Re z) is large)."""
    with mpmath.workdps(50):
        re, im, T = map(mpmath.mpf, (params.r.real, params.r.imag, params.T))
        x, y = re * T, im * T if phase else mpmath.mpf(0)
        w = mpmath.expm1(mpmath.mpc(x, y) if phase else x)
        g = mpmath.conj(w) * (w + 1)  # half the gradient of |w|^2 is (Re g, -Im g)
        change = (abs(x * g.real) + abs(y * g.imag)) / abs(w) ** 2
        return [v / abs(w) for v in nums(re, im)], (16 + change) * mpmath.mpf(2) ** -53


def _mp_stability_bound(params):
    return _mp_over_expm1(params, lambda re, im: [1 + mpmath.hypot(re, im)])


def _mp_inv_zeta_bound(basis, params):
    return _mp_over_expm1(params, lambda re, im: [mpmath.hypot(re, im - mpmath.mpf(v)) for v in basis.lambdas])


def _mp_psi(basis, params):
    return _mp_over_expm1(params, lambda re, im: [mpmath.sqrt(re**2 + im**2 + mpmath.mpf(v) ** 2)
                                                  for v in basis.lambdas], phase=True)


def _close(got: float, want, budget) -> bool:
    """got is the 50-digit want to the relative budget, or to one subnormal
    step; inf only where want is within the budget of overflowing."""
    w, b = float(want), float(budget)  # moves the check by under an ulp, against a budget of >= 16
    return w * (1 - b) - 5e-324 <= got <= w * (1 + b) + 5e-324


def _check_stability_bound(got: float, params: AveragingParams):
    """got has _python_abs_stability_bound's bits where the plain quotient
    runs, and is within _mp_over_expm1's budget of mpmath elsewhere."""
    if _ordinary(params) and _python_abs(params.r) < math.inf:
        want = _python_abs_stability_bound(params)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), params
    else:
        (want,), budget = _mp_stability_bound(params)
        assert _close(got, want, budget), params


def _extreme_draws(seed: int, n: int):
    """Seeded (r, T) whose parts reach |r| overflow, subnormals and Re r T
    past log(DBL_MAX); Re r is never 0.  The powers of ten are Python's, so
    the draws do not depend on numpy's SIMD target."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        # each part near the largest double, subnormal, or anywhere between
        exps = [float(rng.choice([rng.uniform(307.0, 308.25), rng.uniform(-323.3, -308.0), rng.uniform(-300.0, 300.0)]))
                for _ in range(2)]
        re, im = (sign * 10.0**e for sign, e in zip(rng.choice([-1.0, 1.0], 2).tolist(), exps))
        if re == 0.0:
            continue
        # an ordinary horizon, or one that puts |Re r| T around 709
        T = 10.0 ** rng.uniform(-3.0, 3.0) if rng.random() < 0.5 else rng.uniform(690.0, 730.0) / abs(re)
        if 0.0 < T < math.inf:
            yield AveragingParams(complex(re, im), T)


class TestBitsOfTheOverflowRoute:
    """Where the plain quotient runs, numpy's scalar abs and power give the
    bits of Python's, inf where Python's raise, and |r| = 2 |r / 2| exactly:
    the bounds keep the bits of the form that caught OverflowError.  Where
    exp(Re r T) overflows or falls below 2^-54, or a numerator overflows, they
    are within _mp_over_expm1's budget of mpmath."""

    def test_stability_bound(self):
        for params in _extreme_draws(11, 8000):
            _check_stability_bound(stability_bound(params), params)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the factors overflow on some draws
    @pytest.mark.parametrize("basis", [make_dirichlet_basis(1.0, 8), make_periodic_basis(2.0, 9),
                                       make_custom_basis([-3.0, 0.0, 1e-200, 1.0, 1e300])],
                             ids=["dirichlet", "periodic", "custom"])
    def test_conditioning_report(self, basis):
        skipped = 0
        for params in _extreme_draws(12, 1500):
            rep = conditioning_report(basis, params)
            _check_stability_bound(rep.stability_bound, params)
            # psi's denominator follows Im r T, whose phase is rounding noise from 2^53 on
            resolved = abs((params.r * params.T).imag) * 2.0**-53 < 1.0
            skipped += not resolved
            for got, (want, plain), exact, check in zip([rep.inv_zeta_bound, rep.psi], _python_abs_bounds(basis, params),
                                                        [_mp_inv_zeta_bound, _mp_psi], [True, resolved]):
                assert got[plain].tobytes() == want[plain].tobytes(), params
                if check and not plain.all():
                    want, budget = exact(basis, params)
                    assert all(_close(got[k], want[k], budget) for k in np.flatnonzero(~plain)), params
        assert skipped < 1500 / 3, skipped  # 475 of the 1282 draws: the rest check psi


class TestPotentialShift:
    def test_time_zero_scale_is_one(self):
        b = make_dirichlet_basis(1.0, 6, 0.0)
        mu = power_law_state(b, 7, 3.0)
        times = np.linspace(0.0, 1.0, 5)
        w = potential_shift_solution(mu, PARAMS, times)
        assert np.array_equal(w.states[0], recover_initial(mu, PARAMS).values)

    def test_norm_scales_exponentially(self):
        b = make_dirichlet_basis(1.0, 6, 0.0)
        params = AveragingParams(0.7 - 1.2j, 1.0)
        mu = power_law_state(b, 8, 3.0)
        times = np.linspace(0.0, 1.0, 9)
        u = reconstruct_solution(mu, params, times)
        w = potential_shift_solution(mu, params, times)
        for t, su, sw in zip(times, u.states, w.states):
            assert sobolev_norm(ModeCoefficients(sw, b), 0) == pytest.approx(
                np.exp(params.r.real * t) * sobolev_norm(ModeCoefficients(su, b), 0), rel=1e-12
            )

    def test_residual_second_order_in_time(self):
        # centered difference of (1/i) dw/dt - A w + i r w vanishes at
        # O(dt^2); refining the grid 4x should shrink it about 16x
        b = make_dirichlet_basis(1.0, 4, 0.0)
        mu = power_law_state(b, 9, 3.0)

        def residual(steps):
            times = np.linspace(0.0, 1.0, steps + 1)
            w = potential_shift_solution(mu, PARAMS, times)
            vals = w.states
            dt = times[1] - times[0]
            dwdt = (vals[2:] - vals[:-2]) / (2.0 * dt)
            mid = vals[1:-1]
            res = -1j * dwdt + b.lambdas[None, :] * mid + 1j * PARAMS.r * mid
            return np.abs(res).max() / np.abs(vals).max()

        assert residual(400) / residual(1600) > 12.0


    @pytest.mark.filterwarnings("error")
    def test_overflow_named(self):
        # exp(r t) = exp(900) overflows at t = 300
        mu = power_law_state(make_dirichlet_basis(1.0, 4), 7, 3.0)
        with pytest.raises(NumericError, match="t = 300 is not finite"):
            potential_shift_solution(mu, AveragingParams(3.0, 1.0), [0.0, 300.0])


class TestTrajectoryRelation:
    def test_reconstruction_is_propagated_recovery(self):
        b = make_dirichlet_basis(1.0, 10, 0.0)
        mu = power_law_state(b, 10, 3.0)
        times = np.linspace(0.0, 1.0, 6)
        traj = reconstruct_solution(mu, PARAMS, times)
        xi = recover_initial(mu, PARAMS)
        for t, s in zip(times, traj.states):
            assert np.abs(s - propagate(xi, t).values).max() < 1e-15


class TestIllPosedOverride:
    """allow_ill_posed belongs to recover_initial alone; a forced trajectory
    is recover_initial(..., allow_ill_posed=True), then propagate or
    sample_trajectory."""

    @pytest.mark.parametrize("route", [reconstruct_solution, potential_shift_solution, recover_via_shift])
    def test_other_routes_take_no_override(self, route):
        b = make_dirichlet_basis(1.0, 4, 0.0)
        mu = power_law_state(b, 2, 3.0)
        args = (mu, AveragingParams(1.0j, 1.0)) + ((np.array([0.0]),) if route is not recover_via_shift else ())
        with pytest.raises(IllPosedError):
            route(*args)
        with pytest.raises(TypeError):
            route(*args, allow_ill_posed=True)

    def test_forced_trajectory(self):
        b = make_dirichlet_basis(1.0, 4, 0.0)
        params = AveragingParams(1.0j, 1.0)
        xi = power_law_state(b, 3, 2.0)
        forced = recover_initial(apply_time_average(xi, params), params, allow_ill_posed=True)
        traj = sample_trajectory(forced, 1.0, 4)
        for t, state in zip(traj.times, traj.states):
            assert np.allclose(state, propagate(xi, t).values, rtol=0, atol=1e-12)
