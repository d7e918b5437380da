"""The argument rules: every count, real or complex scalar and vector that an
entry point takes is refused with InvalidArgumentError naming the argument,
never with a builtin OverflowError, TypeError or ValueError, and never after a
warning."""

import math
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
    Trajectory,
    apply_time_average,
    cn_step,
    make_custom_basis,
    make_dirichlet_basis,
    make_periodic_basis,
    oracle_time_average,
    project_from_grid,
    propagate,
    reconstruct_solution,
    sample_trajectory,
    uniform_grid,
    unit_floor_shift,
    zeta_factor,
)
from schrodavg.errors import _count
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


# the scalars that an entry point reads as a number, by the argument's name: a
# call that passes x as that argument, all else valid, and whether it is real
# (then 1j is refused too)
SCALARS = {
    "r": (lambda x: AveragingParams(x, 1.0), False),
    "time": (lambda x: propagate(XI, x), True),
    # None asks for the default shift (test_default_shift_is_asked_by_none)
    "c_A": (lambda x: make_custom_basis([1.0, 2.0], 1.0, x), True),
}
PARAMS = AveragingParams(1.0, 1.0)
# vectors that no owner keeps as given: a call that passes v as that vector;
# [1] is a valid value of each, a vector of one value
LOOSE_VECTORS = {
    "lambdas": unit_floor_shift,
    "times": lambda v: reconstruct_solution(apply_time_average(XI, PARAMS), PARAMS, v),
    "times (Trajectory)": lambda v: Trajectory(v, np.ones((3, 2)), XI.basis),
}


def _short(x):
    return "10**400" if x == 10**400 else repr(x)


@pytest.mark.parametrize("bad", [None, "1", [1], np.inf, -np.inf, np.nan, 10**400, 1j], ids=_short)
@pytest.mark.parametrize("arg", SCALARS)
def test_scalars_refused(arg, bad):
    call, real = SCALARS[arg]
    if arg == "c_A" and bad is None or bad == 1j and not real:
        call(bad)  # the default shift, and a complex r, are valid
    else:
        refused(call, bad, arg)


@pytest.mark.parametrize("x", [2, 2.5, np.float64(2.5), np.int64(2)], ids=repr)
@pytest.mark.parametrize("arg", SCALARS)
def test_real_numbers_are_read_as_given(arg, x):
    SCALARS[arg][0](x)


@pytest.mark.parametrize("arg", POSITIVE)
def test_integers_beyond_the_doubles_refused(arg):
    # float(10**400) raises OverflowError
    refused(POSITIVE[arg], 10**400, arg.split()[0])


def test_default_shift_is_asked_by_none():
    assert make_custom_basis([-1.0, 2.0], 1.0, None).c_A == 2.0


@pytest.mark.parametrize("bad", [None, "1", np.inf, np.nan, 1j, [1.0, np.nan, 3.0], [1.0, 2.0, np.inf], [],
                                 [[1.0, 2.0, 3.0]], [1.0, None, 3.0], ["a", "b", "c"], ["1", "2", "3"],
                                 [[1.0], 2.0, 3.0]], ids=repr)
@pytest.mark.parametrize("arg", LOOSE_VECTORS)
def test_loose_vectors_refused(arg, bad):
    refused(LOOSE_VECTORS[arg], bad, arg.split()[0])


@pytest.mark.parametrize("bad", ["abc", [["a", "b"]] * 3, [["1", "2"]] * 3, None, np.full((3, 2), np.nan),
                                 np.ones((3, 3))], ids=["text", "letters", "digits", "None", "nan", "shape"])
def test_trajectory_states_refused(bad):
    refused(lambda s: Trajectory([0.0, 0.5, 1.0], s, XI.basis), bad, "states")


@pytest.mark.parametrize("arg", VECTORS)
def test_strings_are_not_numbers(arg):
    # numpy would read "1" as the number 1
    refused(VECTORS[arg][0], ["1", "2", "3"], arg)


def test_grid_state_length_refused_by_both_oracle_entries():
    cfg = FdConfig(16, 0.25)
    for call in (lambda g: cn_step(g, cfg), lambda g: oracle_time_average(g, PARAMS, cfg)):
        refused(call, GridState(np.ones(15)), "state length")


@pytest.mark.parametrize("bad", [True, np.True_, False], ids=repr)
def test_booleans_are_not_numbers(bad):
    # bool is a numbers.Integral, and numpy reads True as 1
    for arg, call in COUNTS.items():
        refused(call, bad, arg.split()[0])
    for arg, call in POSITIVE.items():
        refused(call, bad, arg.split()[0])
    for arg, (call, _) in SCALARS.items():
        refused(call, bad, arg)
    refused(lambda x: zeta_factor(1.0, 1.0, x), bad, "lam")


@pytest.mark.parametrize("bad", [[True, False, True], np.ones(3, dtype=bool)], ids=["list", "array"])
def test_boolean_vectors_refused(bad):
    for arg, (build, _) in VECTORS.items():
        refused(build, bad, arg)
    for arg, call in LOOSE_VECTORS.items():
        refused(call, bad, arg.split()[0])


@pytest.mark.parametrize("bad", [2**53 + 2, 1e20, 2**63, 10**400], ids=_short)
@pytest.mark.parametrize("arg", COUNTS)
def test_counts_beyond_2_to_53_refused(arg, bad):
    # every double past 2^53 is an integer, and no array of that length fits
    refused(COUNTS[arg], bad, arg.split()[0])


def test_a_count_without_an_upper_end_is_exact():
    # a seed sizes no array: it takes any integer a double can hold, exactly
    assert _count(2**70 + 1, "seed", 0, math.inf) == 2**70 + 1
    refused(lambda n: _count(n, "seed", 0, math.inf), 10**400, "seed")
    refused(lambda n: _count(n, "seed", 0, math.inf), True, "seed")
