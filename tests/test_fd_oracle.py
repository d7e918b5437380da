"""Grid pipeline: step unitarity, discrete eigenphases, averaged-data match."""

import inspect

import numpy as np
import pytest
from scipy.linalg import solve_banded

from conftest import power_law_state
from schrodavg import (
    AveragingParams,
    FdConfig,
    GridState,
    InvalidArgumentError,
    ModeCoefficients,
    apply_time_average,
    cn_step,
    make_dirichlet_basis,
    make_periodic_basis,
    oracle_mu_coeffs,
    oracle_time_average,
)
from schrodavg import fd_oracle


def _interior_mode(k, M, L=1.0):
    h = L / (M + 1)
    j = np.arange(1, M + 1)
    return np.sin(k * np.pi * j * h / L).astype(complex)


class TestGridState:
    @pytest.mark.parametrize("bad", [complex(0.0, np.nan), complex(0.0, np.inf)])
    def test_non_finite_imaginary_part_rejected(self, bad):
        v = np.ones(4, dtype=complex)
        v[2] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            GridState(v)


class TestCnStep:
    def test_zero_stays_zero(self):
        cfg = FdConfig(16, 0.01)
        out = cn_step(GridState(np.zeros(16, dtype=complex)), cfg)
        assert np.all(out.values == 0)

    def test_single_step_unitary(self):
        cfg = FdConfig(64, 0.01)
        rng = np.random.default_rng(40)
        u = GridState(rng.normal(size=64) + 1j * rng.normal(size=64))
        out = cn_step(u, cfg)
        n0 = np.linalg.norm(u.values)
        assert abs(np.linalg.norm(out.values) - n0) / n0 < 1e-12

    def test_no_drift_over_many_steps(self):
        cfg = FdConfig(64, 1e-3)
        rng = np.random.default_rng(41)
        u = GridState(rng.normal(size=64) + 1j * rng.normal(size=64))
        n0 = np.linalg.norm(u.values)
        for _ in range(10_000):
            u = cn_step(u, cfg)
        assert abs(np.linalg.norm(u.values) - n0) / n0 < 1e-9

    def test_discrete_eigenvector_phase(self):
        # one step multiplies sin(k pi j h) by exp(-2 i arctan(lam_h dt / 2)),
        # lam_h = (2/h^2)(1 - cos(k pi h))
        M, k, dt = 31, 3, 0.01
        cfg = FdConfig(M, dt)
        v = _interior_mode(k, M)
        out = cn_step(GridState(v), cfg)
        lam_h = (2.0 / cfg.h**2) * (1.0 - np.cos(k * np.pi * cfg.h))
        factor = np.exp(-2j * np.arctan(lam_h * dt / 2.0))
        assert np.abs(out.values - factor * v).max() < 1e-12

    def test_length_mismatch(self):
        cfg = FdConfig(8, 0.01)
        with pytest.raises(InvalidArgumentError):
            cn_step(GridState(np.ones(7, dtype=complex)), cfg)


class TestOracleTimeAverage:
    def test_zero_state(self):
        cfg = FdConfig(16, 0.25)
        out = oracle_time_average(
            GridState(np.zeros(16, dtype=complex)), AveragingParams(1.0, 1.0), cfg
        )
        assert np.all(out.values == 0)

    def test_frozen_state_integrates_weight_exactly(self, monkeypatch):
        # an identity step freezes the state: the integrand reduces to the
        # weight alone, and the Simpson sum of 1 over [0, T] is T to rounding
        monkeypatch.setattr(fd_oracle, "_cn_stepper", lambda cfg: lambda u: u)
        cfg = FdConfig(16, 0.05)
        rng = np.random.default_rng(42)
        xi = GridState(rng.normal(size=16) + 1j * rng.normal(size=16))
        out = oracle_time_average(xi, AveragingParams(0.0, 1.0), cfg)
        assert np.abs(out.values - 1.0 * xi.values).max() < 1e-12

    def test_odd_step_count_rejected(self):
        cfg = FdConfig(16, 0.2)  # T/dt = 5
        with pytest.raises(InvalidArgumentError):
            oracle_time_average(GridState(np.ones(16, dtype=complex)),
                                AveragingParams(1.0, 1.0), cfg)

    def test_non_integer_step_count_rejected(self):
        cfg = FdConfig(16, 0.3)
        with pytest.raises(InvalidArgumentError):
            oracle_time_average(GridState(np.ones(16, dtype=complex)),
                                AveragingParams(1.0, 1.0), cfg)

    def test_dt_beyond_horizon_rejected(self):
        cfg = FdConfig(16, 2.0)
        with pytest.raises(InvalidArgumentError):
            oracle_time_average(GridState(np.ones(16, dtype=complex)),
                                AveragingParams(1.0, 1.0), cfg)


class TestOracleMuCoeffs:
    def test_zero_in_zero_out(self):
        b = make_dirichlet_basis(1.0, 2, 0.0)
        cfg = FdConfig(64, 0.05)
        out = oracle_mu_coeffs(ModeCoefficients(np.zeros(2), b), AveragingParams(1.0, 1.0), cfg)
        assert np.abs(out.values).max() < 1e-14

    def test_single_low_mode_matches_closed_form(self):
        b = make_dirichlet_basis(1.0, 1, 0.0)
        params = AveragingParams(1.0, 1.0)
        cfg = FdConfig(255, 1e-3)
        got = oracle_mu_coeffs(ModeCoefficients([1.0], b), params, cfg)
        want = apply_time_average(ModeCoefficients([1.0], b), params)
        assert abs(got.values[0] - want.values[0]) / abs(want.values[0]) < 1e-3

    def test_refinement_shrinks_error_about_fourfold(self):
        b = make_dirichlet_basis(1.0, 1, 0.0)
        params = AveragingParams(1.0, 1.0)
        want = apply_time_average(ModeCoefficients([1.0], b), params).values[0]

        def err(M, dt):
            got = oracle_mu_coeffs(ModeCoefficients([1.0], b), params, FdConfig(M, dt))
            return abs(got.values[0] - want)

        # halving h means M -> 2M + 1 on the interior
        assert err(127, 2e-3) / err(255, 1e-3) > 3.0

    # the second extrapolations read 1.5e-4 and 2.35e-3 on this ladder
    @pytest.mark.parametrize("r, tol", [(1.0, 3e-4), (0.05 + 0.85j, 5e-3)], ids=["real", "resonant"])
    def test_richardson_ladder_is_fourth_order(self, r, tol):
        # h and dt halve from rung to rung; the scheme's error is second order in both plus
        # fourth-order terms, so (4 fine - coarse) / 3 leaves a fourth-order error, which falls
        # 16-fold per rung; a defect of any other order (a constant, or one first order in dt) stops that
        basis = make_dirichlet_basis(1.0, 4)
        xi = power_law_state(basis, 7, 1.0)
        params = AveragingParams(r, 1.0)
        want = apply_time_average(xi, params).values
        rungs = [oracle_mu_coeffs(xi, params, FdConfig(M, dt)).values
                 for M, dt in [(255, 1e-3), (511, 5e-4), (1023, 2.5e-4)]]
        e1, e2 = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(rungs, rungs[1:])]

        def rel(v):
            return np.abs(v - want) / np.abs(want)

        assert np.all(rel(e1) / rel(e2) >= 12.0), rel(e1) / rel(e2)  # 15.9-16.5 per mode
        assert rel((16.0 * e2 - e1) / 15.0).max() < tol

    def test_basis_kind_guard(self):
        b = make_periodic_basis(1.0, 2)
        with pytest.raises(InvalidArgumentError):
            oracle_mu_coeffs(ModeCoefficients([1.0, 0.0], b), AveragingParams(1.0, 1.0),
                             FdConfig(64, 0.05))

    def test_domain_length_guard(self):
        b = make_dirichlet_basis(2.0, 2, 0.0)
        xi, params = ModeCoefficients([1.0, 0.0], b), AveragingParams(1.0, 1.0)
        with pytest.raises(InvalidArgumentError, match=r"^oracle grid spans \[0, 1\.0\], not the basis's \[0, 2\.0\]$"):
            oracle_mu_coeffs(xi, params, FdConfig(64, 0.05, L=1.0))
        # the length may miss L by 1e-12 max(1, L) = 2e-12
        oracle_mu_coeffs(xi, params, FdConfig(64, 0.05, L=2.0 + 1e-12))
        with pytest.raises(InvalidArgumentError, match="oracle grid spans"):
            oracle_mu_coeffs(xi, params, FdConfig(64, 0.05, L=2.0 + 3e-12))

    def test_matches_closed_form_on_a_longer_interval(self):
        # the oracle's grid and the transforms' grid are both the basis's [0, 2]
        b = make_dirichlet_basis(2.0, 2)
        xi = ModeCoefficients([1.0, 0.5], b)
        params = AveragingParams(1.0, 1.0)
        got = oracle_mu_coeffs(xi, params, FdConfig(256, 1e-3, 2.0)).values
        want = apply_time_average(xi, params).values
        assert (np.abs(got - want) / np.abs(want)).max() <= 1e-2  # test 03's bound, per mode

    def test_resolution_guard(self):
        b = make_dirichlet_basis(1.0, 16, 0.0)
        with pytest.raises(InvalidArgumentError):
            oracle_mu_coeffs(ModeCoefficients(np.ones(16), b), AveragingParams(1.0, 1.0),
                             FdConfig(64, 0.05))


def _banded_reference(u, params, cfg, steps):
    """Stepping and Simpson accumulation with a fresh banded solve per step."""
    c = 1j * cfg.dt / (2.0 * cfg.h**2)
    ab = np.empty((3, u.size), dtype=complex)
    ab[0, :] = -c
    ab[1, :] = 1.0 + 2.0 * c
    ab[2, :] = -c
    ab[0, 0] = 0.0
    ab[2, -1] = 0.0
    w = np.ones(steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= cfg.dt / 3.0
    acc = w[0] * u
    for n in range(1, steps + 1):
        rhs = (1.0 - 2.0 * c) * u
        rhs[:-1] += c * u[1:]
        rhs[1:] += c * u[:-1]
        u = solve_banded((1, 1), ab, rhs)
        acc = acc + w[n] * np.exp(params.r * (n * cfg.dt)) * u
    return u, acc


class TestFactorOnce:
    # one factorization reused for every step gives the same bits as
    # re-solving the banded system from scratch on each step
    M, STEPS = 64, 200

    def _start(self):
        rng = np.random.default_rng(43)
        return rng.normal(size=self.M) + 1j * rng.normal(size=self.M)

    def test_oracle_loop_bitwise_equals_banded_reference(self):
        cfg = FdConfig(self.M, 1e-3)
        params = AveragingParams(0.7 - 0.3j, self.STEPS * cfg.dt)
        u0 = self._start()
        _, want = _banded_reference(u0, params, cfg, self.STEPS)
        got = oracle_time_average(GridState(u0), params, cfg)
        assert np.array_equal(got.values, want)

    def test_repeated_cn_step_bitwise_equals_banded_reference(self):
        cfg = FdConfig(self.M, 1e-3)
        u0 = self._start()
        want, _ = _banded_reference(u0, AveragingParams(1.0, 1.0), cfg, self.STEPS)
        u = GridState(u0)
        for _ in range(self.STEPS):
            u = cn_step(u, cfg)
        assert np.array_equal(u.values, want)


class TestIndependence:
    def test_no_coefficient_space_formulas_in_source(self):
        # the cross-check must not be built from the formulas it checks
        src = inspect.getsource(fd_oracle)
        for token in ("zeta", "apply_time_average", "recover", "reconstruct"):
            assert token not in src
