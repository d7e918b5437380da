"""Phase evolution, trajectory sampling, sup norms, CSV export."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from conftest import bits, power_law_state, runs_of_equal_eigenvalues
from schrodavg import (
    AveragingParams,
    InvalidArgumentError,
    ModeCoefficients,
    NumericError,
    Trajectory,
    make_custom_basis,
    make_dirichlet_basis,
    make_periodic_basis,
    propagate,
    reconstruct_solution,
    sample_trajectory,
    sobolev_norm,
    trajectory_sup_norm,
)
import schrodavg.spectral
from schrodavg.evolve import _THREAD_MIN_VALUES, _check_times, _evolve, _require_finite, trajectory_to_csv


class TestPropagate:
    def test_identity_at_t_zero(self):
        b = make_dirichlet_basis(1.0, 5, 0.0)
        xi = power_law_state(b, 1, 2.0)
        out = propagate(xi, 0.0)
        assert np.array_equal(out.values, xi.values)

    def test_per_mode_modulus_preserved(self):
        b = make_dirichlet_basis(1.0, 16, 0.0)
        xi = power_law_state(b, 2, 2.0)
        for t in (-3.7, 0.1, 2.0, 17.0):
            out = propagate(xi, t)
            assert np.abs(np.abs(out.values) - np.abs(xi.values)).max() < 1e-15

    def test_first_mode_half_second_phase(self):
        # high-precision reference for exp(-i pi^2 / 2)
        b = make_dirichlet_basis(1.0, 1, 0.0)
        out = propagate(ModeCoefficients([1.0], b), 0.5)
        ref = 0.2205840407496981 + 0.9753679720836314j
        assert abs(out.values[0] - ref) < 1e-15

    def test_group_property(self):
        b = make_dirichlet_basis(1.0, 12, 0.0)
        xi = power_law_state(b, 3, 2.0)
        two_step = propagate(propagate(xi, 0.3), 1.1)
        one_step = propagate(xi, 1.4)
        assert np.abs(two_step.values - one_step.values).max() < 1e-12

    def test_linearity(self):
        b = make_dirichlet_basis(1.0, 8, 0.0)
        x = power_law_state(b, 4, 2.0)
        y = power_law_state(b, 5, 2.0)
        a, bb = 0.7 - 0.2j, -1.3 + 0.4j
        combo = ModeCoefficients(a * x.values + bb * y.values, b)
        lhs = propagate(combo, 0.9).values
        rhs = a * propagate(x, 0.9).values + bb * propagate(y, 0.9).values
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_unitarity_both_norms(self):
        b = make_dirichlet_basis(1.0, 20, 0.0)
        xi = power_law_state(b, 6, 2.0)
        for t in (0.25, 1.0, 8.5):
            out = propagate(xi, t)
            for order in (0, 1):
                assert sobolev_norm(out, order) == pytest.approx(
                    sobolev_norm(xi, order), rel=1e-12
                )

    def test_huge_phase_reduced_consistently(self):
        # above the reduction threshold the phase is folded mod 2*pi first;
        # modulus stays exactly preserved
        b = make_dirichlet_basis(1.0, 1, 0.0)
        xi = ModeCoefficients([1.0 + 1.0j], b)
        t = 3.0e7  # lambda * t ~ 2.96e8
        out = propagate(xi, t)
        assert abs(abs(out.values[0]) - abs(xi.values[0])) < 1e-14
        folded = np.remainder(b.lambdas[0] * t, 2.0 * np.pi)
        assert abs(out.values[0] - xi.values[0] * np.exp(-1j * folded)) == 0.0

    def test_nonfinite_time_rejected(self):
        b = make_dirichlet_basis(1.0, 2, 0.0)
        xi = ModeCoefficients([1.0, 0.0], b)
        with pytest.raises(InvalidArgumentError):
            propagate(xi, np.inf)


class TestSampleTrajectory:
    def test_single_step_endpoints(self):
        b = make_dirichlet_basis(1.0, 4, 0.0)
        xi = power_law_state(b, 7, 2.0)
        traj = sample_trajectory(xi, 2.0, 1)
        assert np.array_equal(traj.times, [0.0, 2.0])
        assert np.array_equal(traj.states[0], xi.values)
        assert np.array_equal(traj.states[1], propagate(xi, 2.0).values)

    def test_zero_state_stays_zero(self):
        b = make_dirichlet_basis(1.0, 4, 0.0)
        traj = sample_trajectory(ModeCoefficients(np.zeros(4), b), 1.0, 8)
        assert np.all(traj.states == 0)

    def test_every_slice_conserves_h_norm(self):
        b = make_dirichlet_basis(1.0, 10, 0.0)
        xi = power_law_state(b, 8, 2.0)
        traj = sample_trajectory(xi, 3.0, 16)
        ref = sobolev_norm(xi, 0)
        for s in traj.states:
            assert sobolev_norm(ModeCoefficients(s, b), 0) == pytest.approx(ref, rel=1e-12)

    def test_bad_horizon_rejected(self):
        b = make_dirichlet_basis(1.0, 2, 0.0)
        xi = ModeCoefficients([1.0, 0.0], b)
        with pytest.raises(InvalidArgumentError):
            sample_trajectory(xi, 0.0, 4)
        with pytest.raises(InvalidArgumentError):
            sample_trajectory(xi, 1.0, 0)


class TestSupNorm:
    def test_single_mode_value_is_sqrt_lambda(self):
        b = make_dirichlet_basis(1.0, 1, 0.0)
        traj = sample_trajectory(ModeCoefficients([1.0], b), 1.0, 7)
        assert trajectory_sup_norm(traj, 1) == pytest.approx(np.pi, rel=1e-12)

    def test_zero_state(self):
        b = make_dirichlet_basis(1.0, 3, 0.0)
        traj = sample_trajectory(ModeCoefficients(np.zeros(3), b), 1.0, 4)
        assert trajectory_sup_norm(traj, 0) == 0.0

    def test_equals_initial_norm_for_any_state(self):
        # modulus-preserving evolution makes the sup independent of sampling
        b = make_dirichlet_basis(1.0, 24, 0.0)
        for seed in range(5):
            xi = power_law_state(b, seed, 2.0)
            traj = sample_trajectory(xi, 2.0, 11)
            for order in (0, 1):
                assert trajectory_sup_norm(traj, order) == pytest.approx(
                    sobolev_norm(xi, order), rel=1e-12
                )

    def test_unsupported_order(self):
        b = make_dirichlet_basis(1.0, 2, 0.0)
        traj = sample_trajectory(ModeCoefficients([1.0, 0.0], b), 1.0, 2)
        with pytest.raises(InvalidArgumentError):
            trajectory_sup_norm(traj, 2)


def row_loop(values, lambdas, times):
    """Reference: one row per time, the phase folded mod 2 pi above 1e8."""
    out = np.empty((len(times), values.size), dtype=complex)
    for j, t in enumerate(times):
        phase = lambdas * t
        big = np.abs(phase) > 1.0e8
        if np.any(big):
            phase = np.where(big, np.remainder(phase, 2.0 * np.pi), phase)
        out[j] = values * np.exp(-1j * phase)
    return out


def row_sup_norm(states, w):
    return max(float(np.sqrt(np.sum(w * (v.real**2 + v.imag**2)))) for v in states)


class TestBlockKernel:
    """Trajectories are filled and sup norms taken in blocks of
    max(1, 16383 // N) rows; every bit must match a row-by-row loop."""

    @pytest.mark.parametrize("N", [1, 63, 64, 1000, 5461, 5462, 8191, 8192, 16383, 16384])
    def test_blocks_match_row_loop(self, N):
        rng = np.random.default_rng(N)
        B = max(1, 16383 // N)
        for make in (make_dirichlet_basis, make_periodic_basis):
            b = make(1.0, N)
            values = rng.normal(size=N) + 1j * rng.normal(size=N)
            values *= 10.0 ** rng.uniform(-5.0, 5.0, N)
            # one full block and a partial one, then a horizon whose later
            # rows fold the phase (lambda t > 1e8)
            for n_times, T in ((B + int(rng.integers(1, 40)), 2.0), (int(rng.integers(2, 12)), 3.0e7)):
                times = np.sort(rng.uniform(0.0, T, n_times))
                ref = row_loop(values, b.lambdas, times)
                got = _evolve(values, b.lambdas, times)
                assert np.array_equal(got, ref), (make.__name__, n_times, T)
                traj = Trajectory(times, got, b)
                for order, w in ((0, np.ones(N)), (1, b.lambdas + b.c_A)):
                    assert trajectory_sup_norm(traj, order) == row_sup_norm(ref, w)

    # sha256 of the (33, N) states, recorded on the row-by-row kernel: N = 64
    # is one block of 33 rows, N = 1000 blocks of 16 rows ending in one row
    @pytest.mark.parametrize("N, seed, digest", [
        (64, 13, "29fa5cd15b0779db451fe19c913e79651ffe84a6bd4dde9b53b7141c3ce72ffc"),
        (1000, 14, "fbcfcf5264e3112e8d1ac644b33e96197963f858ecdadde52feae40ea622b671"),
    ])
    def test_block_trajectory_bytes_pinned(self, N, seed, digest):
        b = make_dirichlet_basis(1.0, N)
        mu = power_law_state(b, seed, 3.0)
        traj = reconstruct_solution(mu, AveragingParams(0.5 + 0.25j, 1.0), np.linspace(0.0, 1.0, 33))
        assert hashlib.sha256(traj.states.tobytes()).hexdigest() == digest


class TestThreadedRows:
    """Rows of _THREAD_MIN_VALUES values or more are filled and reduced on
    threads when the process may use several CPUs; every bit must still match
    the row-by-row loop."""

    # 8 CPUs: more threads than this host may have cores, and the cap of 4
    @pytest.mark.parametrize("N, cpus", [(_THREAD_MIN_VALUES - 1, 2), (_THREAD_MIN_VALUES, 2), (1 << 18, 8)])
    def test_threads_match_row_loop(self, N, cpus, executors):
        made = executors(cpus)
        rng = np.random.default_rng(N)
        for make in (make_dirichlet_basis, make_periodic_basis):
            b = make(1.0, N)
            values = rng.normal(size=N) + 1j * rng.normal(size=N)
            values *= 10.0 ** rng.uniform(-5.0, 5.0, N)
            # the horizon 3e7 folds the phase (lambda t > 1e8) on later rows
            for n_times, T in ((5, 2.0), (4, 3.0e7)):
                times = np.sort(rng.uniform(0.0, T, n_times))
                ref = row_loop(values, b.lambdas, times)
                got = _evolve(values, b.lambdas, times)
                assert np.array_equal(got, ref), (make.__name__, T)
                traj = Trajectory(times, got, b)
                for order, w in ((0, np.ones(N)), (1, b.lambdas + b.c_A)):
                    assert trajectory_sup_norm(traj, order) == row_sup_norm(ref, w)
        assert len(made) == (0 if N < _THREAD_MIN_VALUES else 12)
        assert all(args == (min(cpus, 4),) for args in made)

    def test_one_cpu_runs_inline(self, executors):
        made = executors(1)
        b = make_periodic_basis(1.0, _THREAD_MIN_VALUES)
        traj = sample_trajectory(power_law_state(b, 3, 2.0), 1.0, 3)
        trajectory_sup_norm(traj, 1)
        assert made == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_worker_error_reaches_caller(self, cpus, executors):
        # the weight 1e308 times |c|^2 = 1e400 overflows the order-1 norm of
        # rows 1 and 2, even rescaled; row 0 and every order-0 norm are finite
        made = executors(cpus)
        N = _THREAD_MIN_VALUES
        b = make_custom_basis(np.r_[np.ones(N - 1), 1.0e308])
        states = np.ones((3, N), dtype=complex)
        states[1:, -1] = 1.0e200
        traj = Trajectory([0.0, 1.0, 2.0], states, b)
        assert trajectory_sup_norm(traj, 0) == pytest.approx(1.0e200)
        with pytest.raises(NumericError, match="order-1 norm is not finite"):
            trajectory_sup_norm(traj, 1)
        assert len(made) == (2 if cpus > 1 else 0)


def signed_basis(N):
    """N nondecreasing eigenvalues from -3e9 to 3e9 through a run -0.0, 0.0,
    with -1e8 and 1e8 among them: at t = +-1 their phases sit on the fold
    threshold, and the next doubles out are folded."""
    half = (N - 6) // 2
    lam = np.r_[-np.geomspace(3e9, 1.0, half), -0.0, 0.0,
                np.geomspace(1.0, 3e9, N - 6 - half), -1e8, 1e8,
                np.nextafter(-1e8, -np.inf), np.nextafter(1e8, np.inf)]
    return make_custom_basis(np.sort(lam, kind="stable"))


class TestSliceFold:
    """A row's phases lambda_k t are monotone, so the kernel folds only the
    runs beyond +-1e8 at its ends, and writes exp(-i phase) as cos and -sin;
    every bit, the signs of zeros too, must match the row loop that folds
    through a mask and takes np.exp(-1j * phase)."""

    # one phase per log-uniform magnitude from 1e-300 to 1e15, both signs, and
    # +-0.0, 5e-324: the host's numpy must take float64 cos and sin where glibc's
    # cexp takes them, or the kernel's bits (and every digest) move
    def test_cos_minus_i_sin_is_complex_exp_on_this_host(self):
        rng = np.random.default_rng(17)
        mag = 10.0 ** rng.uniform(-300.0, 15.0, 100_000)
        phi = np.r_[mag, -mag, 0.0, -0.0, 5e-324, -5e-324, 1e8, -1e8, 2.0 * np.pi]
        e = np.empty(phi.size, dtype=complex)
        np.cos(phi, out=e.real)
        np.sin(phi, out=e.imag)
        np.conjugate(e, out=e)
        assert np.array_equal(bits(e), bits(np.exp(-1j * phi)))

    # N = 64 fills one block of all 13 rows, N = 16384 one row per block
    @pytest.mark.parametrize("N", [64, 16384])
    def test_runs_past_the_threshold_match_row_loop(self, N):
        rng = np.random.default_rng(N + 1)
        b = signed_basis(N)
        values = rng.normal(size=N) + 1j * rng.normal(size=N)
        # negative times give descending rows; +-0.0 and +-1 put phases on +-1e8
        times = np.r_[np.sort(rng.uniform(-40.0, 40.0, 9)), -1.0, -0.0, 0.0, 1.0]
        times.sort(kind="stable")
        got = _evolve(values, b.lambdas, times)
        assert np.array_equal(bits(got), bits(row_loop(values, b.lambdas, times)))

    # Dirichlet N = 64 crosses 1e8 inside each row from |t| = 2474 on; the
    # runs of equal eigenvalues lead with -0.0, 0.0
    @pytest.mark.parametrize("basis", [
        lambda: make_dirichlet_basis(1.0, 64),
        lambda: make_periodic_basis(1.0, 64),
        lambda: make_custom_basis(runs_of_equal_eigenvalues(64) * 1.0e4),
    ])
    def test_straddling_rows_match_row_loop(self, basis):
        b = basis()
        rng = np.random.default_rng(5)
        values = rng.normal(size=64) + 1j * rng.normal(size=64)
        times = np.sort(rng.uniform(-6000.0, 6000.0, 40))
        lam, index = b._distinct
        got = _evolve(values, lam, times, index)
        assert np.array_equal(bits(got), bits(row_loop(values, b.lambdas, times)))

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_threads_match_row_loop(self, cpus, executors):
        made = executors(cpus)
        N = _THREAD_MIN_VALUES
        b = signed_basis(N)
        values = np.exp(2j * np.pi * np.random.default_rng(cpus).random(N))
        times = np.array([-2.5, -1.0, -0.0, 0.0, 1.0, 3.0])
        got = _evolve(values, b.lambdas, times)
        assert np.array_equal(bits(got), bits(row_loop(values, b.lambdas, times)))
        assert len(made) == (0 if cpus == 1 else 1)

    # one block of 3 rows, one row per block, then rows on threads
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("N, cpus", [(4, 1), (16384, 1), (_THREAD_MIN_VALUES, 1), (_THREAD_MIN_VALUES, 2)])
    def test_overflowing_phase_on_a_descending_row_named(self, N, cpus, executors):
        # lambda t = -1e310 overflows at the start of the row of t = -1e10
        made = executors(cpus)
        b = make_custom_basis(np.r_[np.ones(N - 1), 1e300])
        xi = ModeCoefficients(np.ones(N), b)
        with pytest.raises(NumericError, match="t = -10000000000 is not finite"):
            _evolve(xi.values, b.lambdas, np.array([-1e10, 0.0, 1.0]))
        with pytest.raises(NumericError, match="t = -10000000000 is not finite"):
            propagate(xi, -1e10)
        assert len(made) == (1 if cpus > 1 else 0)


class TestDistinctRows:
    """On a basis with equal eigenvalues, a fill takes its phases and exps
    once per distinct eigenvalue and gathers them; every bit, the signs of
    zeros too, must still match the row-by-row loop."""

    @pytest.mark.parametrize("N", [1, 16, 64, 1000, 8191, 8192, 16384])
    def test_gather_matches_row_loop(self, N):
        rng = np.random.default_rng(N)
        for b in (make_periodic_basis(1.0, N), make_custom_basis(runs_of_equal_eigenvalues(N))):
            values = rng.normal(size=N) + 1j * rng.normal(size=N)
            values *= 10.0 ** rng.uniform(-5.0, 5.0, N)
            lam, index = b._distinct
            # one row and 33 rows, then a horizon whose later rows fold the
            # phase (lambda t > 1e8)
            for n_times, T in ((1, 2.0), (33, 2.0), (5, 3.0e7)):
                times = np.sort(rng.uniform(0.0, T, n_times))
                got = _evolve(values, lam, times, index)
                ref = row_loop(values, b.lambdas, times)
                assert np.array_equal(got.view(np.int64), ref.view(np.int64)), (b.kind, n_times, T)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_gather_on_threads(self, cpus, executors):
        made = executors(cpus)
        N = _THREAD_MIN_VALUES
        b = make_periodic_basis(1.0, N)
        xi = power_law_state(b, 5, 1.0)
        traj = sample_trajectory(xi, 3.0, 4)
        ref = row_loop(xi.values, b.lambdas, traj.times)
        assert np.array_equal(traj.states.view(np.int64), ref.view(np.int64))
        assert len(made) == (1 if cpus > 1 else 0)


class TestOverflow:
    """A trajectory whose states overflow raises NumericError, which names the
    first such time, and numpy warns of nothing."""

    @pytest.mark.filterwarnings("error")
    def test_overflowing_phase_named(self):
        # lambda t = 1e310 overflows
        xi = ModeCoefficients(np.ones(4), make_custom_basis([1.0, 1e300, 1e300, 1e300]))
        with pytest.raises(NumericError, match="t = 2500000000 is not finite"):
            sample_trajectory(xi, 1e10, 4)
        with pytest.raises(NumericError, match="t = 10000000000 is not finite"):
            propagate(xi, 1e10)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_product_named(self):
        # exp(-i pi/4) turns (a + ia) into about sqrt(2) a = 2.1e308
        xi = ModeCoefficients([1.5e308 + 1.5e308j], make_custom_basis([np.pi / 4.0]))
        with pytest.raises(NumericError, match="t = 1 is not finite"):
            sample_trajectory(xi, 1.0, 1)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_imaginary_part_alone_named(self):
        # a rotation by 0.5 keeps the real part at -6.8e307 and takes the
        # imaginary part to 1.7e308 (cos 0.5 + sin 0.5) = 2.3e308
        xi = ModeCoefficients([-1.7e308 + 1.7e308j], make_custom_basis([1.0]))
        with np.errstate(over="ignore"):
            state = xi.values * np.exp(-0.5j)
        assert np.isfinite(state.real).all() and not np.isfinite(state.imag).any()
        with pytest.raises(NumericError, match="t = 0.5 is not finite"):
            sample_trajectory(xi, 1.0, 2)
        states = np.ones((3, 2), dtype=complex)
        states[2, 1] = complex(0.0, -np.inf)
        states[1, 0] = complex(1.0, np.nan)
        with pytest.raises(NumericError, match="t = 0.25 is not finite"):
            _require_finite(states, np.array([0.0, 0.25, 0.5]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_overflow_on_a_thread_reaches_caller(self, cpus, executors):
        made = executors(cpus)
        N = _THREAD_MIN_VALUES
        b = make_custom_basis(np.r_[np.ones(N - 1), 1e300])
        with pytest.raises(NumericError, match="t = 5000000000 is not finite"):
            sample_trajectory(ModeCoefficients(np.ones(N), b), 1e10, 2)
        assert len(made) == (1 if cpus > 1 else 0)


class TestTrajectoryType:
    def test_times_must_ascend(self):
        b = make_dirichlet_basis(1.0, 2, 0.0)
        with pytest.raises(InvalidArgumentError):
            Trajectory(np.array([0.0, -1.0]), np.ones((2, 2)), b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_nonfinite_time_rejected(self, bad, at):
        times = [0.0, 0.5, 1.0, 2.0]
        times[at] = bad
        with pytest.raises(InvalidArgumentError, match="finite and ascending"):
            _check_times(times)

    def test_descending_times_rejected_equal_neighbours_kept(self):
        for times in ([0.0, 1.0, 0.5], [2.0, 1.0], [0.0, 5e-324, 0.0], [-1e308, 1e308, -1e308]):
            with pytest.raises(InvalidArgumentError, match="finite and ascending"):
                _check_times(times)
        for times in ([0.0, 0.0], [-1.0, -1.0, 0.0, 0.0, 3.0], [-0.0, 0.0, -0.0], [-1e308, 1e308], [7.0]):
            assert np.array_equal(_check_times(times), times)

    def test_state_count_must_match(self):
        b = make_dirichlet_basis(1.0, 2, 0.0)
        with pytest.raises(InvalidArgumentError):
            Trajectory(np.array([0.0, 1.0]), np.ones((1, 2)), b)

    def test_mode_count_must_match(self):
        b = make_dirichlet_basis(1.0, 2, 0.0)
        with pytest.raises(InvalidArgumentError):
            Trajectory(np.array([0.0, 1.0]), np.ones((2, 3)), b)
        with pytest.raises(InvalidArgumentError):
            Trajectory(np.array([0.0, 1.0]), np.ones(4), b)

    def test_nonfinite_row_rejected(self):
        b = make_dirichlet_basis(1.0, 2, 0.0)
        for bad in (np.nan, np.inf, complex(0.0, np.inf)):
            states = np.ones((3, 2), dtype=complex)
            states[2, 1] = bad
            with pytest.raises(InvalidArgumentError):
                Trajectory(np.array([0.0, 0.5, 1.0]), states, b)

    def test_states_are_read_only(self):
        b = make_dirichlet_basis(1.0, 2, 0.0)
        traj = Trajectory(np.array([0.0, 1.0]), np.ones((2, 2)), b)
        assert traj.states.dtype == complex
        with pytest.raises(ValueError):
            traj.states[0, 0] = 2.0


class TestCsvExport:
    def test_rows_and_sidecar(self, tmp_path):
        b = make_dirichlet_basis(1.0, 3, 0.0)
        traj = sample_trajectory(power_law_state(b, 9, 2.0), 1.0, 2)
        path = tmp_path / "trajectory.csv"
        trajectory_to_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,k,re,im"
        assert len(lines) == 1 + 3 * 3  # header + 3 times x 3 modes
        t0, k0, re0, im0 = lines[1].split(",")
        assert (t0, k0) == ("0", "1")
        assert complex(float(re0), float(im0)) == traj.states[0, 0]
        meta = json.loads((tmp_path / "trajectory.meta.json").read_text())
        assert meta == {"kind": "dirichlet_interval", "L": 1.0, "N": 3, "cA": 0.0}

    @pytest.mark.parametrize("n", [512, 4096])
    def test_memory_is_held_per_block(self, tmp_path, monkeypatch, n):
        # 40 times x n modes, written 64 values at a time: building whole columns
        # as Python lists held about 2 MiB of them at n = 512, and a whole-table
        # range check of the k column 514 KiB at n = 4096
        monkeypatch.setattr(schrodavg.spectral, "_CSV_BLOCK_ROWS", 64)
        b = make_dirichlet_basis(1.0, n)
        traj = sample_trajectory(power_law_state(b, 10, 2.0), 1.0, 39)
        tracemalloc.start()
        try:
            trajectory_to_csv(traj, tmp_path / "trajectory.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak
