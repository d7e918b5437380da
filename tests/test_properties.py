"""Property-based checks for the algebraic contracts of the transform chain."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from schrodavg import (
    AveragingParams,
    ModeCoefficients,
    apply_time_average,
    make_dirichlet_basis,
    propagate,
    recover_initial,
    sobolev_norm,
    zeta_factor,
    zeta_factors,
)
from schrodavg.recover import _inverted_factors

finite = dict(allow_nan=False, allow_infinity=False)

times = st.floats(min_value=0.0, max_value=50.0, **finite)
mode_counts = st.integers(min_value=1, max_value=16)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

# Weights with |Re r| bounded away from 0 keep every 1/zeta finite and modest,
# so round-trip assertions can use a fixed 1e-10 tolerance.
safe_re = st.one_of(
    st.floats(min_value=0.1, max_value=3.0, **finite),
    st.floats(min_value=-3.0, max_value=-0.1, **finite),
)
safe_weights = st.builds(complex, safe_re, st.floats(min_value=-3.0, max_value=3.0, **finite))
horizons = st.floats(min_value=0.1, max_value=5.0, **finite)


def state_from_seed(basis, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(basis.mode_count) + 1j * rng.standard_normal(basis.mode_count)
    return ModeCoefficients(values=values, basis=basis)


class TestEvolution:
    @given(n=mode_counts, seed=seeds, s=times, t=times)
    def test_group_property(self, n, seed, s, t):
        xi = state_from_seed(make_dirichlet_basis(1.0, n), seed)
        two_hops = propagate(propagate(xi, s), t)
        one_hop = propagate(xi, s + t)
        np.testing.assert_allclose(two_hops.values, one_hop.values, rtol=0, atol=1e-9)

    @given(n=mode_counts, seed_a=seeds, seed_b=seeds, t=times,
           c=st.floats(min_value=-5.0, max_value=5.0, **finite))
    def test_linearity(self, n, seed_a, seed_b, t, c):
        basis = make_dirichlet_basis(1.0, n)
        xi = state_from_seed(basis, seed_a)
        eta = state_from_seed(basis, seed_b)
        combo = ModeCoefficients(values=xi.values + c * eta.values, basis=basis)
        lhs = propagate(combo, t).values
        rhs = propagate(xi, t).values + c * propagate(eta, t).values
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10 * (1 + abs(c)))

    @given(n=mode_counts, seed=seeds, t=times, order=st.sampled_from([0, 1, 2]))
    def test_norms_preserved(self, n, seed, t, order):
        xi = state_from_seed(make_dirichlet_basis(1.0, n), seed)
        before = sobolev_norm(xi, order)
        after = sobolev_norm(propagate(xi, t), order)
        assert after == pytest.approx(before, rel=1e-12, abs=1e-300)

    @given(n=mode_counts, seed=seeds)
    def test_norm_scale_is_ordered(self, n, seed):
        # Dirichlet eigenvalues on the unit interval all exceed 1.
        xi = state_from_seed(make_dirichlet_basis(1.0, n), seed)
        assert sobolev_norm(xi, 0) <= sobolev_norm(xi, 1) * (1 + 1e-12)
        assert sobolev_norm(xi, 1) <= sobolev_norm(xi, 2) * (1 + 1e-12)


class TestAveraging:
    @given(n=mode_counts, seed_a=seeds, seed_b=seeds, r=safe_weights, T=horizons,
           c=st.floats(min_value=-5.0, max_value=5.0, **finite))
    def test_average_is_linear(self, n, seed_a, seed_b, r, T, c):
        basis = make_dirichlet_basis(1.0, n)
        params = AveragingParams(r=r, T=T)
        xi = state_from_seed(basis, seed_a)
        eta = state_from_seed(basis, seed_b)
        combo = ModeCoefficients(values=xi.values + c * eta.values, basis=basis)
        lhs = apply_time_average(combo, params).values
        rhs = apply_time_average(xi, params).values + c * apply_time_average(eta, params).values
        scale = max(np.max(np.abs(lhs)), 1.0)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * scale * (1 + abs(c)))

    @given(r=safe_weights, T=horizons,
           lam=st.floats(min_value=-100.0, max_value=100.0, **finite),
           q=st.floats(min_value=-10.0, max_value=10.0, **finite))
    def test_zeta_invariant_under_diagonal_shift(self, r, T, lam, q):
        base = zeta_factor(r, T, lam)
        shifted = zeta_factor(r + 1j * q, T, lam + q)
        assert abs(shifted - base) <= 1e-9 * max(abs(base), 1e-30)

    @given(r=safe_weights, T=horizons,
           lam=st.floats(min_value=-100.0, max_value=100.0, **finite))
    def test_stable_formula_matches_naive_off_singularity(self, r, T, lam):
        s = complex(r.real, r.imag - lam)
        assume(abs(s) * T > 1e-2)
        naive = (np.exp(s * T) - 1.0) / s
        stable = zeta_factor(r, T, lam)
        assert abs(stable - naive) <= 1e-9 * max(abs(naive), 1e-30)


class TestRecovery:
    @given(n=mode_counts, seed=seeds, r=safe_weights, T=horizons)
    def test_average_then_recover_round_trips(self, n, seed, r, T):
        basis = make_dirichlet_basis(1.0, n)
        params = AveragingParams(r=r, T=T)
        xi = state_from_seed(basis, seed)
        back = recover_initial(apply_time_average(xi, params), params)
        scale = np.max(np.abs(xi.values))
        np.testing.assert_allclose(back.values, xi.values, rtol=0, atol=1e-10 * scale)

    @given(n=mode_counts, seed=seeds, r=safe_weights, T=horizons)
    def test_recover_then_average_round_trips(self, n, seed, r, T):
        basis = make_dirichlet_basis(1.0, n)
        params = AveragingParams(r=r, T=T)
        mu = state_from_seed(basis, seed)
        forward = apply_time_average(recover_initial(mu, params), params)
        scale = np.max(np.abs(mu.values))
        np.testing.assert_allclose(forward.values, mu.values, rtol=0, atol=1e-10 * scale)

    @given(n=mode_counts, r=safe_weights, T=horizons)
    def test_inverse_factor_bound(self, n, r, T):
        basis = make_dirichlet_basis(1.0, n)
        params = AveragingParams(r=r, T=T)
        inv = 1.0 / _inverted_factors(basis, params, False).abs_values
        bound = np.hypot(r.real, r.imag - basis.lambdas) / abs(np.expm1(r.real * T))
        assert np.all(inv <= bound * (1 + 1e-12))
