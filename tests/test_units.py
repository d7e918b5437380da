"""Units as a contract: the problem at (L, T, r) and at (2^j L, 4^j T, 4^-j r)
is one problem with time measured in units 4^j times larger and length in
units 2^j times larger.  Every step is a power-of-two scaling, so the package
reproduces it bit for bit: each eigenvalue scales by 4^-j, each s_k T is
unchanged, each factor zeta_k and the data scale by 4^j, the recovered state
and the trajectory at scaled times do not move, and the per-mode bounds scale
by 4^-j.

Not covariant, and not checked: the order-1 and order-2 norms (their default
c_A = 1 - lambda_min fixes a unit), stability_bound (it adds 1 to |r|), the
shift q, and the degeneracy verdict, whose threshold is floored at an absolute
1; where either side refuses a mode, the maps are not compared.
"""

import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import power_law_state
from schrodavg import (
    AveragingParams,
    ModeCoefficients,
    apply_time_average,
    conditioning_report,
    load_coefficients,
    make_custom_basis,
    make_dirichlet_basis,
    make_periodic_basis,
    propagate,
    reconstruct_solution,
    recover_initial,
    sample_trajectory,
    sobolev_norm,
    trajectory_sup_norm,
    zeta_factors,
)
from schrodavg.cli import main

finite = dict(allow_nan=False, allow_infinity=False)


def _basis(kind: str, L: float, n: int, j: int, seed: int):
    if kind == "dirichlet":
        return make_dirichlet_basis(L * 2.0**j, n)
    if kind == "periodic":
        return make_periodic_basis(L * 2.0**j, n)
    lam = np.sort(np.random.default_rng(seed).uniform(-50.0, 500.0, n))
    return make_custom_basis(lam * 4.0**-j, L * 2.0**j)


def _same(a, b, scale: float = 1.0):
    """a times scale is b, bit for bit.  Complex parts scale one by one: a
    complex product with scale + 0j would turn a -0.0 part into +0.0."""
    assert (np.asarray(a).view(float) * scale).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=150)
@given(kind=st.sampled_from(["dirichlet", "periodic", "custom"]), n=st.integers(1, 40),
       L=st.floats(0.1, 10.0, **finite), j=st.sampled_from([*range(-15, 0), *range(1, 15)]),
       re=st.one_of(st.floats(-3.0, -0.1, **finite), st.floats(0.1, 3.0, **finite)),
       im=st.floats(-50.0, 50.0, **finite), T=st.floats(0.01, 5.0, **finite),
       # Re r T as drawn; past log(DBL_MAX), where exp(Re r T) overflows; or below log(2^-54)
       x=st.sampled_from([None, 720.0, -50.0]), seed=st.integers(0, 2**32 - 1))
def test_scaled_units_change_no_bit(kind, n, L, j, re, im, T, x, seed):
    # past log(DBL_MAX) the bounds are num exp(-Re r T) ~ num e^-720: Im r = 1e20
    # keeps them normal doubles on both sides, where scaling is exact
    r = complex(re, im) if x is None else complex(x / T, im + 1e20 * (x > 0))
    b, p = _basis(kind, L, n, 0, seed), AveragingParams(r, T)
    b2, p2 = _basis(kind, L, n, j, seed), AveragingParams(r * 4.0**-j, T * 4.0**j)
    up, down = 4.0**j, 4.0**-j
    _same(b.lambdas, b2.lambdas, down)
    _same(zeta_factors(b, p).values, zeta_factors(b2, p2).values, up)
    rep, rep2 = conditioning_report(b, p), conditioning_report(b2, p2)
    _same(rep.inv_zeta_bound, rep2.inv_zeta_bound, down)
    _same(rep.psi, rep2.psi, down)
    if x == 720.0 or zeta_factors(b, p).degenerate.size or zeta_factors(b2, p2).degenerate.size:
        return  # the factors overflow to NaN, or a side refuses modes: no map to compare
    xi = power_law_state(b, seed, 2.0)
    mu, mu2 = apply_time_average(xi, p), apply_time_average(ModeCoefficients(xi.values, b2), p2)
    _same(mu.values, mu2.values, up)
    _same(sobolev_norm(mu, 0), sobolev_norm(mu2, 0), up)
    back, back2 = recover_initial(mu, p), recover_initial(mu2, p2)
    _same(back.values, back2.values)
    times = T * np.array([0.0, 0.3, 1.0, 1.7])
    traj, traj2 = reconstruct_solution(mu, p, times), reconstruct_solution(mu2, p2, times * up)
    _same(traj.states, traj2.states)
    assert trajectory_sup_norm(traj, 0) == trajectory_sup_norm(traj2, 0)
    _same(propagate(back, 2.5).values, propagate(back2, 2.5 * up).values)
    s, s2 = sample_trajectory(back, T, 4), sample_trajectory(back2, T * up, 4)
    _same(s.times, s2.times, up)
    _same(s.states, s2.states)
    assert math.isfinite(sobolev_norm(back, 0))


def test_scaled_units_on_the_command_line(tmp_path):
    # j = 3: (L, T, r) = (1, 1, 1 + 0.5i) and (8, 64, (1 + 0.5i) / 64) on 16 Dirichlet modes.
    # recover draws its data mu from the seed, the same on both sides, so its
    # recovered state, not its data, carries the factor 4^-j
    runs = {}
    for name, L, T, r in [("one", 1.0, 1.0, 1 + 0.5j), ("scaled", 8.0, 64.0, (1 + 0.5j) / 64)]:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"basis": {"L": L, "N": 16}, "T": T, "r": [r.real, r.imag]}))
        for command in ("forward", "average", "recover", "roundtrip"):
            out = runs[name, command] = tmp_path / name / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0

    def both(command, file, read):
        return [read(runs[side, command] / file) for side in ("one", "scaled")]

    def coefficients(path):
        return load_coefficients(path).values

    def rows(path):  # t, k, re, im
        return np.loadtxt(path, delimiter=",", skiprows=1)

    mu, mu2 = both("average", "mu.json", coefficients)
    _same(mu, mu2, 64.0)
    xi, xi2 = both("recover", "xi.json", coefficients)
    _same(xi, xi2, 1 / 64)
    traj, traj2 = both("recover", "trajectory.csv", rows)
    _same(traj[:, 2:], traj2[:, 2:], 1 / 64)
    traj, traj2 = both("forward", "trajectory.csv", rows)
    _same(traj[:, 0], traj2[:, 0], 64.0)
    _same(traj[:, 1:], traj2[:, 1:])
    errors, errors2 = both("roundtrip", "errors.csv", lambda path: path.read_bytes())
    assert errors == errors2
