"""Phase evolution, trajectory sampling, sup norms, CSV export."""

import json

import numpy as np
import pytest

from conftest import power_law_state
from schrodavg import (
    InvalidArgumentError,
    ModeCoefficients,
    Trajectory,
    make_dirichlet_basis,
    propagate,
    sample_trajectory,
    sobolev_norm,
    trajectory_sup_norm,
    trajectory_to_csv,
)


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


class TestTrajectoryType:
    def test_times_must_ascend(self):
        b = make_dirichlet_basis(1.0, 2, 0.0)
        with pytest.raises(InvalidArgumentError):
            Trajectory(np.array([0.0, -1.0]), np.ones((2, 2)), b)

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
