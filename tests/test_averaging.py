"""Averaging factors: closed form vs quadrature, forward map, smoothing."""

import numpy as np
import pytest

from conftest import (
    averaged_mode_by_quadrature,
    cexpm1_two_reductions,
    power_law_state,
    runs_of_equal_eigenvalues,
    zeta_by_quadrature,
)
from schrodavg import (
    AveragingParams,
    DegenerateModeError,
    InvalidArgumentError,
    ModeCoefficients,
    NumericError,
    apply_time_average,
    conditioning_report,
    forward_smoothing_constant,
    make_custom_basis,
    make_dirichlet_basis,
    make_periodic_basis,
    reconstruct_solution,
    recover_initial,
    sobolev_norm,
    zeta_factor,
    zeta_factors,
)
from schrodavg.averaging import ZetaFactors, _cexpm1, _factors, _zeta_values, zeta_to_csv
from schrodavg.evolve import _ELIDE_VALUES, _THREAD_MIN_VALUES


def _solve_chain(xi, params):
    """Every public consumer of the factors, as the benchmark's solve op and
    the CLI commands call them."""
    mu = apply_time_average(xi, params)
    recover_initial(mu, params)
    conditioning_report(xi.basis, params)
    reconstruct_solution(mu, params, np.linspace(0.0, params.T, 5))
    zeta_factors(xi.basis, params)
    forward_smoothing_constant(xi.basis, params)


class TestZetaFactor:
    def test_real_weight_no_oscillation(self):
        assert zeta_factor(1.0, 1.0, 0.0) == pytest.approx(np.e - 1.0, rel=1e-15)

    def test_removable_singularity_gives_horizon(self):
        # r = i*lambda makes the integrand identically 1
        assert zeta_factor(1j * np.pi**2, 1.0, np.pi**2) == 1.0

    def test_against_adaptive_quadrature_reference(self):
        # frozen from oscillatory-weight quadrature of the defining integral
        ref = -0.342080695051459 - 1.0746781985085538j
        got = zeta_factor(1.0, 1.0, np.pi)
        assert abs(got - ref) < 1e-12
        assert abs(got - zeta_by_quadrature(1.0, 1.0, np.pi)) < 1e-12

    def test_full_revolution_cancels(self):
        # exp(-2 pi i k^2) = 1 annihilates the numerator
        assert abs(zeta_factor(0.0, 2.0 / np.pi, np.pi**2)) < 1e-15

    def test_total_on_invalid_free_inputs(self):
        with pytest.raises(InvalidArgumentError):
            zeta_factor(1.0, 0.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            zeta_factor(np.inf, 1.0, 1.0)

    def test_near_singularity_matches_direct_formula(self):
        # agree with the naive closed form while it still carries full digits
        # (|r - i lam| >~ 1e-4), and with quadrature once cancellation eats it
        for eps in (1e-2, 1e-4):
            r = 1j * (np.pi**2 + eps)
            naive = (np.exp((r - 1j * np.pi**2) * 1.0) - 1.0) / (r - 1j * np.pi**2)
            assert zeta_factor(r, 1.0, np.pi**2) == pytest.approx(naive, rel=1e-10)
        r = 1j * (np.pi**2 + 3e-7)
        ref = zeta_by_quadrature(r, 1.0, np.pi**2)
        assert zeta_factor(r, 1.0, np.pi**2) == pytest.approx(ref, rel=1e-10)

    def test_thousand_random_draws_match_quadrature(self):
        # |r|, |lam| <= 1e3, T in [0.01, 10]; T capped so Re(r) T <= 100
        # keeps exp representable
        rng = np.random.default_rng(20260823)
        worst = 0.0
        for _ in range(1000):
            a = rng.uniform(-1000, 1000)
            bb = rng.uniform(-1000, 1000)
            lam = rng.uniform(-1000, 1000)
            t_hi = min(10.0, 100.0 / max(abs(a), 1e-6))
            T = rng.uniform(0.01, max(0.011, t_hi))
            z = zeta_factor(complex(a, bb), T, lam)
            ref = zeta_by_quadrature(complex(a, bb), T, lam)
            worst = max(worst, abs(z - ref) / abs(ref))
        assert worst < 1e-10


class TestZetaFactors:
    def test_matches_scalar_definition(self):
        b = make_dirichlet_basis(1.0, 1, 0.0)
        params = AveragingParams(1.0, 1.0)
        f = zeta_factors(b, params)
        assert f.values[0] == zeta_factor(1.0, 1.0, np.pi**2)

    def test_one_entry_per_mode(self):
        b = make_dirichlet_basis(1.0, 9, 0.0)
        assert zeta_factors(b, AveragingParams(0.5, 2.0)).values.shape == (9,)

    @pytest.mark.parametrize("count", [8, 10])
    def test_factor_count_must_match_the_basis(self, count):
        with pytest.raises(InvalidArgumentError, match="factor count must match basis mode count"):
            ZetaFactors(np.ones(count), make_dirichlet_basis(1.0, 9))

    def test_per_mode_quadrature_agreement(self):
        b = make_dirichlet_basis(1.0, 6, 0.0)
        params = AveragingParams(-0.7 + 1.3j, 0.8)
        f = zeta_factors(b, params)
        for lam, z in zip(b.lambdas, f.values):
            assert abs(z - zeta_by_quadrature(params.r, params.T, lam)) < 1e-10


class TestFactorMemo:
    BASES = {
        "dirichlet": lambda: make_dirichlet_basis(1.0, 12),
        "periodic": lambda: make_periodic_basis(2.0, 11),
        "custom": lambda: make_custom_basis([-3.0, 0.0, 0.5, 7.0, 40.0]),
    }

    def test_one_evaluation_per_basis_and_params(self, zeta_calls):
        b = make_dirichlet_basis(1.0, 16)
        params = AveragingParams(0.7 - 0.4j, 1.3)
        _solve_chain(power_law_state(b, 1, 2.0), params)
        assert len(zeta_calls) == 1

    def test_another_basis_evaluates_again(self, zeta_calls):
        params = AveragingParams(0.7 - 0.4j, 1.3)
        # equal eigenvalues, but two objects: the memo keys on identity
        for b in (make_dirichlet_basis(1.0, 16), make_dirichlet_basis(1.0, 16)):
            _solve_chain(power_law_state(b, 1, 2.0), params)
        assert len(zeta_calls) == 2

    @pytest.mark.parametrize("kind", sorted(BASES))
    def test_memoised_outputs_equal_fresh_ones(self, kind):
        b = self.BASES[kind]()
        other = make_dirichlet_basis(1.0, 3)
        xi = power_law_state(b, 4, 2.0)
        r, T = 0.3 + 2.0j, 0.9

        def fresh():
            return AveragingParams(r, T)  # a new object has no memo

        params = fresh()
        zeta_factors(other, params)  # the memo must not serve another basis
        mu = apply_time_average(xi, params)
        assert np.array_equal(mu.values, apply_time_average(xi, fresh()).values)
        assert np.array_equal(mu.values, _zeta_values(r, T, b.lambdas) * xi.values)
        assert np.array_equal(zeta_factors(b, params).values, _zeta_values(r, T, b.lambdas))
        assert np.array_equal(recover_initial(mu, params).values,
                              recover_initial(mu, fresh()).values)
        assert np.array_equal(reconstruct_solution(mu, params, [0.0, 0.4]).states,
                              reconstruct_solution(mu, fresh(), [0.0, 0.4]).states)
        assert forward_smoothing_constant(b, params) == forward_smoothing_constant(b, fresh())
        rep, ref = conditioning_report(b, params), conditioning_report(b, fresh())
        for name in ("zeta", "abs_zeta", "inv_zeta_bound", "psi"):
            assert np.array_equal(getattr(rep, name), getattr(ref, name))

    def test_memoised_factors_are_read_only(self):
        b = make_dirichlet_basis(1.0, 4)
        params = AveragingParams(1.0, 1.0)
        rep = conditioning_report(b, params)
        with pytest.raises(ValueError):
            rep.zeta[0] = 0.0
        assert rep.zeta is conditioning_report(b, params).zeta


    def test_report_shares_the_read_only_abs_zeta(self):
        b = make_dirichlet_basis(1.0, 4)
        params = AveragingParams(1.0, 1.0)
        rep = conditioning_report(b, params)
        assert rep.abs_zeta is conditioning_report(b, params).abs_zeta
        with pytest.raises(ValueError):
            rep.abs_zeta[0] = 0.0

    def test_repeat_refusal_names_the_same_modes(self):
        # acceptance test 04's point: every mode turns a full revolution
        b = make_dirichlet_basis(1.0, 128)
        params = AveragingParams(0.0, 2.0 / np.pi)
        mu = power_law_state(b, 3, 2.0)
        refusals = []
        for _ in range(2):  # the second reads the memo
            with pytest.raises(DegenerateModeError) as info:
                recover_initial(mu, params)
            refusals.append((info.value.modes, info.value.threshold))
        assert refusals[0] == refusals[1]
        assert refusals[0][0] == list(range(1, 129))

    @pytest.mark.parametrize("kind", sorted(BASES))
    @pytest.mark.parametrize("r, T", [(0.3 + 2.0j, 0.9), (0j, 2.0 / np.pi)])
    def test_memoised_record_equals_fresh_evaluation(self, kind, r, T):
        b = self.BASES[kind]()
        params = AveragingParams(r, T)
        _factors(b, params)
        hit = _factors(b, params)
        assert hit is params._memo
        fresh = _factors(b, AveragingParams(r, T))
        hand = ZetaFactors(_zeta_values(r, T, b.lambdas), b)  # built without the memo
        absz = np.abs(_zeta_values(r, T, b.lambdas))
        threshold = 1e-14 * max(1.0, float(absz.max()))
        for rec in (hit, fresh, hand):
            assert np.array_equal(rec.abs_values, absz)
            assert rec.threshold == threshold
            assert rec.min_abs == float(absz.min())
            assert np.array_equal(rec.degenerate, np.flatnonzero(absz <= threshold))

    def test_zeta_factors_is_the_shared_read_only_object(self):
        b = make_dirichlet_basis(1.0, 4)
        params = AveragingParams(0.0, 2.0 / np.pi)  # every mode degenerate
        f = zeta_factors(b, params)
        assert f is zeta_factors(b, params) is _factors(b, params)
        for a in (f.values, f.abs_values, f.degenerate):
            with pytest.raises(ValueError):
                a[0] = 0
        z = np.ones(4, dtype=complex)
        hand = ZetaFactors(z, b)
        z[0] = 2.0  # a hand-built object keeps its own copy
        assert hand.values[0] == 1.0


def bits(a):
    """The bit patterns of a complex array: -0.0 != 0.0, and NaN == NaN."""
    return a.view(np.int64)


def signed_log_uniform(rng, lo, hi, n):
    return 10.0 ** rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)


class TestCexpm1:
    """_cexpm1 takes cos(y) and sin(y) from one exp(-1j * y); every bit, the
    signs of zeros too, must match np.cos and np.sin taken apart."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-20, -0.5, 1.0, np.pi]

    def test_arrays_match_two_reductions(self):
        rng = np.random.default_rng(23)
        n = 50_000
        x = np.r_[signed_log_uniform(rng, -320.0, np.log10(700.0), n), np.repeat(self.SPECIAL, len(self.SPECIAL))]
        y = np.r_[signed_log_uniform(rng, -320.0, 15.0, n), np.tile(self.SPECIAL, len(self.SPECIAL))]
        z = np.empty(x.size, dtype=complex)
        z.real, z.imag = x, y
        assert np.array_equal(bits(_cexpm1(z)), bits(cexpm1_two_reductions(z)))

    # conditioning_report passes one np.complex128 r T; it took a 0-d array
    def test_scalar_matches_zero_d_two_reductions(self):
        rng = np.random.default_rng(29)
        r = signed_log_uniform(rng, -3.0, 2.0, 2000) + 1j * signed_log_uniform(rng, -3.0, 12.0, 2000)
        T = 10.0 ** rng.uniform(-2.0, 1.0, 2000)
        for rT in [complex(a) for a in r * T] + [complex(a, b) for a in self.SPECIAL for b in self.SPECIAL]:
            got, want = _cexpm1(np.complex128(rT)), cexpm1_two_reductions(np.asarray(rT))
            assert np.array_equal(bits(np.array([got])), bits(np.array([want]))), rT


class TestDistinctFactors:
    """zeta_k is evaluated once per distinct eigenvalue and gathered, in
    chunks that run on threads from _THREAD_MIN_VALUES modes on; every bit
    must match one evaluation over all modes."""

    BASES = {
        "periodic-1": lambda: make_periodic_basis(1.0, 1),
        "periodic-11": lambda: make_periodic_basis(2.0, 11),
        "periodic-4096": lambda: make_periodic_basis(1.0, 4096),
        "runs": lambda: make_custom_basis(runs_of_equal_eigenvalues(50)),
    }

    @pytest.mark.parametrize("kind", sorted(BASES))
    @pytest.mark.parametrize("r, T", [
        (0.5 + 0.25j, 1.0), (0j, 2.0 / np.pi), (complex(-0.0, 0.0), 1.0), (complex(-0.0, -0.0), 1.5),
        (-1.5 + 3.0j, 0.7), (2.0 - 40.0j, 3.0), (1e-170, 1.0),
    ])
    def test_equal_to_one_evaluation_over_all_modes(self, kind, r, T):
        b = self.BASES[kind]()
        params = AveragingParams(r, T)
        assert np.array_equal(bits(_factors(b, params).values), bits(_zeta_values(params.r, params.T, b.lambdas)))

    @pytest.mark.parametrize("cpus", [2, 8])
    @pytest.mark.parametrize("runs", [False, True])
    def test_chunks_on_threads(self, cpus, runs, executors):
        made = executors(cpus)
        N = _THREAD_MIN_VALUES + 5
        if runs:
            lam = runs_of_equal_eigenvalues(N)
            # one run over modes 16382..16385, across the chunk edges there
            lo = _ELIDE_VALUES - 2
            lam[lo:lo + 4] = lam[lo]
            b = make_custom_basis(lam)
        else:
            b = make_dirichlet_basis(1.0, N)
        params = AveragingParams(0.3 - 0.8j, 1.7)
        assert np.array_equal(bits(_factors(b, params).values), bits(_zeta_values(params.r, params.T, b.lambdas)))
        # chunks of 16383 values, one per distinct eigenvalue
        chunks = -(-b._distinct[0].size // (_ELIDE_VALUES - 1))
        assert made == [(min(cpus, 4, chunks),)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_overflow_is_named_whatever_the_caller_error_handling(self, cpus, executors):
        # exp(Re(r) T) = exp(1000) overflows: the kernel ignores numpy's errors
        # inline and on the chunks' threads alike, and the result rule names
        # the NaN factors, under the caller's all="raise" too
        made = executors(cpus)
        b = make_dirichlet_basis(1.0, _THREAD_MIN_VALUES)
        xi = ModeCoefficients(np.ones(b.mode_count), b)
        with np.errstate(all="raise"), pytest.raises(NumericError) as info:
            apply_time_average(xi, AveragingParams(1000.0, 1.0))
        assert str(info.value) == "time average overflows: mode 1 is not finite"
        assert len(made) == (1 if cpus > 1 else 0)


class TestApplyTimeAverage:
    def test_single_zero_mode_scales_by_e_minus_one(self):
        b = make_custom_basis([0.0])
        out = apply_time_average(ModeCoefficients([1.0], b), AveragingParams(1.0, 1.0))
        assert out.values[0] == pytest.approx(np.e - 1.0, rel=1e-14)

    def test_zero_in_zero_out(self):
        b = make_dirichlet_basis(1.0, 5, 0.0)
        out = apply_time_average(ModeCoefficients(np.zeros(5), b), AveragingParams(1.0, 1.0))
        assert np.all(out.values == 0)

    def test_linearity(self):
        b = make_dirichlet_basis(1.0, 10, 0.0)
        params = AveragingParams(0.4 - 2.0j, 1.7)
        x = power_law_state(b, 11, 2.0)
        y = power_law_state(b, 12, 2.0)
        a, bb = 1.5 + 0.5j, -0.25j
        combo = ModeCoefficients(a * x.values + bb * y.values, b)
        lhs = apply_time_average(combo, params).values
        rhs = a * apply_time_average(x, params).values + bb * apply_time_average(y, params).values
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_matches_trajectory_quadrature(self):
        # independent route: integrate exp(r t) times the evolving state
        b = make_dirichlet_basis(1.0, 8, 0.0)
        params = AveragingParams(1.0, 1.0)
        xi = power_law_state(b, 13, 2.0)
        mu = apply_time_average(xi, params)
        for k in range(8):
            ref = averaged_mode_by_quadrature(xi, params, k)
            assert abs(mu.values[k] - ref) < 1e-10


class TestSmoothing:
    def test_per_mode_damping_inequality(self):
        # |zeta_k| <= (exp(max(Re r, 0) T) + 1) / |r - i lam_k|
        b = make_dirichlet_basis(1.0, 32, 0.0)
        rng = np.random.default_rng(14)
        for _ in range(50):
            r = complex(rng.uniform(-3, 3), rng.uniform(-20, 20))
            T = rng.uniform(0.05, 4.0)
            z = np.abs(zeta_factors(b, AveragingParams(r, T)).values)
            cap = (np.exp(max(r.real, 0.0) * T) + 1.0) / np.abs(r - 1j * b.lambdas)
            assert np.all(z <= cap * (1 + 1e-12))

    def test_forward_constant_bounds_h2_by_h1(self):
        b = make_dirichlet_basis(1.0, 24, 0.0)
        params = AveragingParams(1.0, 1.0)
        C = forward_smoothing_constant(b, params)
        for seed in range(8):
            xi = power_law_state(b, seed, 2.0)
            mu = apply_time_average(xi, params)
            assert sobolev_norm(mu, 2) <= C * sobolev_norm(xi, 1) * (1 + 1e-12)

    def test_forward_constant_attained_by_single_mode(self):
        b = make_dirichlet_basis(1.0, 24, 0.0)
        params = AveragingParams(1.0, 1.0)
        C = forward_smoothing_constant(b, params)
        lam = b.lambdas
        z = np.abs(zeta_factors(b, params).values)
        k_star = int(np.argmax(np.sqrt((lam**2) / lam) * z))
        e = np.zeros(24)
        e[k_star] = 1.0
        xi = ModeCoefficients(e, b)
        mu = apply_time_average(xi, params)
        assert sobolev_norm(mu, 2) == pytest.approx(C * sobolev_norm(xi, 1), rel=1e-12)


class TestCsvExport:
    def test_header_and_shape(self, tmp_path):
        b = make_dirichlet_basis(1.0, 4, 0.0)
        f = zeta_factors(b, AveragingParams(1.0, 1.0))
        path = tmp_path / "zeta.csv"
        zeta_to_csv(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,lambda,zeta_re,zeta_im,abs_zeta"
        assert len(lines) == 5
        k, lam, re, im, mag = lines[1].split(",")
        assert k == "1"
        assert float(lam) == pytest.approx(np.pi**2)
        assert complex(float(re), float(im)) == pytest.approx(f.values[0])
        assert float(mag) == pytest.approx(abs(f.values[0]))
