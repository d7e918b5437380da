"""The three argument rules: every count, positive scalar and coefficient
vector that an entry point takes is refused with InvalidArgumentError naming
the argument, never with a builtin OverflowError or ValueError, and never
after a warning."""

import re

import numpy as np
import pytest

from schrodavg import (
    AveragingParams,
    FdConfig,
    GridState,
    InvalidArgumentError,
    ModeCoefficients,
    SpatialGrid,
    make_custom_basis,
    make_dirichlet_basis,
    make_periodic_basis,
    oracle_time_average,
    project_from_grid,
    propagate,
    sample_trajectory,
    uniform_grid,
    zeta_factor,
)
from schrodavg.fd_oracle import _MAX_STEPS, _step_count

pytestmark = pytest.mark.filterwarnings("error")

XI = ModeCoefficients([1.0, 0.5j], make_dirichlet_basis(1.0, 2))

# argument name -> a call that passes x as that argument, all else valid
COUNTS = {
    "N (dirichlet)": lambda n: make_dirichlet_basis(1.0, n),
    "N (periodic)": lambda n: make_periodic_basis(1.0, n),
    "M": lambda n: uniform_grid(1.0, n),
    "point_count": lambda n: SpatialGrid(n, np.linspace(0.0, 1.0, 4)),
    "interior_points": lambda n: FdConfig(n, 0.01),
    "steps": lambda n: sample_trajectory(XI, 1.0, n),
}
POSITIVE = {
    "T (params)": lambda x: AveragingParams(1.0, x),
    "domain_length": lambda x: make_custom_basis([1.0], x),
    "L (dirichlet)": lambda x: make_dirichlet_basis(x, 4),
    "L (periodic)": lambda x: make_periodic_basis(x, 4),
    "L (grid)": lambda x: uniform_grid(x, 8),
    "dt": lambda x: FdConfig(16, x),
    "L (fd)": lambda x: FdConfig(16, 0.01, x),
    "T (trajectory)": lambda x: sample_trajectory(XI, x, 4),
}
# vector name -> a call that builds the vector's owner from v of 3 values,
# and the owner's attribute that keeps it
VECTORS = {
    "coefficients": (lambda v: ModeCoefficients(v, make_dirichlet_basis(1.0, 3)), "values"),
    "grid state": (GridState, "values"),
    "lambdas": (make_custom_basis, "lambdas"),
    "points": (lambda v: SpatialGrid(3, v), "points"),
}


def refused(call, x, name):
    """call(x) raises InvalidArgumentError whose message names ``name``."""
    with pytest.raises(InvalidArgumentError, match=rf"\b{re.escape(name)}\b") as info:
        call(x)
    assert type(info.value) is InvalidArgumentError


@pytest.mark.parametrize("bad", [np.inf, np.nan, 0, -1, 2.5, 3.7, "4"], ids=repr)
@pytest.mark.parametrize("arg", COUNTS)
def test_counts_refused(arg, bad):
    refused(COUNTS[arg], bad, arg.split()[0])


@pytest.mark.parametrize("n", [4, 4.0, np.int64(4), np.float64(4.0)], ids=repr)
@pytest.mark.parametrize("arg", COUNTS)
def test_integral_numbers_count(arg, n):
    COUNTS[arg](n)


def test_counts_are_kept_as_ints():
    assert make_dirichlet_basis(1.0, 4.0).mode_count == 4
    assert type(FdConfig(4.0, 0.01).interior_points) is int
    assert type(SpatialGrid(4.0, np.linspace(0.0, 1.0, 4)).point_count) is int
    assert sample_trajectory(XI, 1.0, 4.0).times.size == 5


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0, 0.0, -1, "1", None, 1j], ids=repr)
@pytest.mark.parametrize("arg", POSITIVE)
def test_positive_scalars_refused(arg, bad):
    refused(POSITIVE[arg], bad, arg.split()[0])


@pytest.mark.parametrize("bad", [
    [1.0, np.nan, 3.0], [1.0, 2.0, np.inf], [], [[1.0, 2.0, 3.0]], [1.0, None, 3.0], ["a", "b", "c"], [[1.0], 2.0, 3.0],
], ids=repr)
@pytest.mark.parametrize("arg", VECTORS)
def test_vectors_refused(arg, bad):
    refused(VECTORS[arg][0], bad, arg)


@pytest.mark.parametrize("arg", VECTORS)
def test_vectors_are_read_only_copies(arg):
    build, attribute = VECTORS[arg]
    v = np.array([1.0, 2.0, 3.0])
    kept = getattr(build(v), attribute)
    v[0] = 0.0
    assert kept[0] == 1.0 and not kept.flags.writeable


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=repr)
def test_non_finite_scalars_refused(bad):
    refused(lambda x: zeta_factor(1.0, 1.0, x), bad, "lam")
    refused(lambda x: AveragingParams(complex(1.0, x), 1.0), bad, "r")
    refused(lambda x: propagate(XI, x), bad, "time")


@pytest.mark.parametrize("T, dt", [(1e300, 1e-300), (1e300, 1e-5), ((_MAX_STEPS + 2) * 1e-5, 1e-5)],
                         ids=["T/dt overflows", "1e305 steps", "budget + 2"])
def test_step_count_refused(T, dt):
    # T / dt = 1e300 / 1e-300 overflows to inf, which has no nearest integer;
    # a count over the budget is refused before its Simpson weights are allocated
    params, cfg = AveragingParams(1.0, T), FdConfig(16, dt)
    refused(lambda g: oracle_time_average(g, params, cfg), GridState(np.ones(16)), "T/dt")


def test_step_budget_is_inclusive():
    assert _step_count(_MAX_STEPS * 1e-5, 1e-5) == _MAX_STEPS


@pytest.mark.parametrize("bad", [
    np.where(np.arange(33) == 5, np.nan, 0.0), np.ones((33, 1)), ["a"] * 33, np.ones(32), np.ones(34),
], ids=["nan", "2-d", "strings", "short", "long"])
def test_grid_samples_refused(bad):
    basis, grid = make_dirichlet_basis(1.0, 4), uniform_grid(1.0, 33)
    refused(lambda v: project_from_grid(v, basis, grid), bad, "samples")
