"""Results checked as results: every vector the package computes passes one
rule, which raises NumericError naming the stage and the first mode, grid
point or time that is not finite, and comes back read-only, in memory of
its own."""

import numpy as np
import pytest

from conftest import power_law_state
from schrodavg import (
    AveragingParams,
    FdConfig,
    GridState,
    ModeCoefficients,
    NumericError,
    apply_time_average,
    cn_step,
    make_dirichlet_basis,
    make_periodic_basis,
    oracle_time_average,
    project_from_grid,
    propagate,
    recover_initial,
    recover_via_shift,
    synthesize_on_grid,
)

DIRICHLET_4 = make_dirichlet_basis(1.0, 4)
# mode 2 alone overflows: times |zeta_2| ~ 3.7 at r = 5, or over |zeta_2| ~ 1 / 49.6 at r = -30
BIG_MODE_2 = ModeCoefficients([1.0, 1e308, 1.0, 1.0], DIRICHLET_4)
# numpy warns where the arithmetic overflows; the grid transforms, the oracle's loop and its CN step
# run without warnings
WARNS = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.mark.parametrize("call, named", [
    pytest.param(lambda: apply_time_average(BIG_MODE_2, AveragingParams(5.0, 1.0)),
                 "time average overflows: mode 2", marks=WARNS, id="apply_time_average"),
    pytest.param(lambda: recover_initial(BIG_MODE_2, AveragingParams(-30.0, 1.0)),
                 "recovered state overflows: mode 2", marks=WARNS, id="recover_initial"),
    pytest.param(lambda: recover_via_shift(BIG_MODE_2, AveragingParams(-30.0, 1.0)),
                 "recovered state overflows: mode 2", marks=WARNS, id="recover_via_shift"),
    # x_4 = 0.375 is the first point where sqrt(2) sin(pi x) > 1, so 1.7e308 times it overflows
    pytest.param(lambda: synthesize_on_grid(ModeCoefficients([1.7e308, 0.0], make_dirichlet_basis(1.0, 2)), 9),
                 "grid synthesis overflows: grid point 4", id="synthesize_on_grid"),
    pytest.param(lambda: project_from_grid(np.full(33, 1e308), DIRICHLET_4),
                 "grid projection overflows: mode 1", id="project_from_grid"),
    # h = 1e200 / 256, and h0 h1 overflows: Simpson's odd-point weight read 0, a third of each coefficient
    pytest.param(lambda: project_from_grid(np.ones(257), make_dirichlet_basis(1e200, 2)),
                 "grid projection overflows: the spacing 3.9062499999999999e[+]197 squared", id="grid spacing"),
    # exp(800 t) overflows from t = 0.89 on
    pytest.param(lambda: oracle_time_average(GridState(np.ones(31)), AveragingParams(800.0, 1.0),
                                             FdConfig(31, 1e-2)),
                 "oracle time average overflows: grid point 1", id="oracle_time_average"),
    pytest.param(lambda: cn_step(GridState(np.full(2048, 1e306)), FdConfig(2048, 1e-4)),
                 "CN step overflows: grid point 1", id="cn_step"),
])
def test_overflowing_result_named(call, named):
    with pytest.raises(NumericError, match=f"^{named} is not finite$"):
        call()


PERIODIC_8 = make_periodic_basis(1.0, 8)  # lambda_1 = 0, so recover_via_shift shifts by 1
XI = power_law_state(PERIODIC_8, 5, 2.0)
SAMPLES = np.sin(np.pi * np.linspace(0.0, 1.0, 33)) + 0j


@pytest.mark.parametrize("produce", [
    pytest.param(lambda: (apply_time_average(XI, AveragingParams(1.0, 1.0)), XI.values), id="apply_time_average"),
    pytest.param(lambda: (recover_initial(XI, AveragingParams(1.0, 1.0)), XI.values), id="recover_initial"),
    pytest.param(lambda: (recover_via_shift(XI, AveragingParams(1.0, 1.0)), XI.values), id="recover_via_shift"),
    pytest.param(lambda: (propagate(XI, 0.3), XI.values), id="propagate"),
    pytest.param(lambda: (project_from_grid(SAMPLES, DIRICHLET_4), SAMPLES), id="project_from_grid"),
])
def test_result_is_read_only_and_its_own(produce):
    out, given = produce()
    assert not out.values.flags.writeable
    assert not np.shares_memory(out.values, given)
