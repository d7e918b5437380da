"""End-to-end acceptance checks, one verdict line per check.

Each test prints

    [acceptance] NN <slug>: PASS|FAIL (<measurements>)

before asserting, so ``pytest -rP tests/test_acceptance.py`` shows the whole
scoreboard at once.  Check 02 and the amplification half of check 09 assert a
uniform H^2 -> H^1 bound on the inversion that high-frequency data genuinely
violates; they are asserted unmodified and are expected to fail.  README.md
("Known-failing checks") discusses why.
"""

import json
import time

import numpy as np
import pytest
from conftest import power_law_state

from schrodavg import (
    AveragingParams,
    DegenerateModeError,
    FdConfig,
    ModeCoefficients,
    apply_time_average,
    conditioning_report,
    make_custom_basis,
    make_dirichlet_basis,
    oracle_mu_coeffs,
    propagate,
    recover_initial,
    recover_via_shift,
    reconstruct_solution,
    potential_shift_solution,
    sobolev_norm,
    stability_bound,
    trajectory_sup_norm,
    zeta_factor,
    zeta_factors,
)
from schrodavg.cli import main as cli_main


def verdict(num, slug, ok, detail):
    print(f"[acceptance] {num:02d} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_01_round_trip_exactness():
    basis = make_dirichlet_basis(1.0, 128)
    params = AveragingParams(r=1.0 + 0.0j, T=1.0)
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        xi = power_law_state(basis, seed, 2.0)
        back = recover_initial(apply_time_average(xi, params), params)
        diff = ModeCoefficients(back.values - xi.values, basis)
        worst = max(worst, sobolev_norm(diff, 0) / sobolev_norm(xi, 0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    verdict(1, "round-trip-exactness", ok,
            f"worst rel err {worst:.2e}, {elapsed:.2f} s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_02_sup_h1_stability_estimate():
    basis = make_dirichlet_basis(1.0, 128)
    times = np.linspace(0.0, 1.0, 33)
    t0 = time.perf_counter()
    violations, total, worst = 0, 0, 0.0
    for r in (1.0 + 0.0j, -1.0 + 0.0j, 1.0 + 2.0j):
        params = AveragingParams(r=r, T=1.0)
        bound = stability_bound(params)
        for seed in range(100):
            mu = power_law_state(basis, seed, 3.0)
            sup_h1 = trajectory_sup_norm(reconstruct_solution(mu, params, times), 1)
            ratio = sup_h1 / (bound * sobolev_norm(mu, 2))
            worst = max(worst, ratio)
            total += 1
            if ratio > 1.0 + 1e-12:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 5.0
    verdict(2, "sup-h1-stability-estimate", ok,
            f"{violations}/{total} violations, worst ratio {worst:.2f}, {elapsed:.2f} s")
    assert violations == 0, (
        f"sup-in-time H1 norm exceeded stability_bound * ||mu||_H2 on "
        f"{violations} of {total} cases (worst ratio {worst:.2f})"
    )
    assert elapsed < 5.0


def test_03_finite_difference_oracle_agreement():
    basis = make_dirichlet_basis(1.0, 4)
    params = AveragingParams(r=1.0 + 0.0j, T=1.0)
    xi = power_law_state(basis, 7, 1.0)
    spectral = apply_time_average(xi, params).values
    t0 = time.perf_counter()
    coarse = oracle_mu_coeffs(xi, params, FdConfig(interior_points=2048, dt=1e-4)).values
    fine = oracle_mu_coeffs(xi, params, FdConfig(interior_points=4097, dt=5e-5)).values
    elapsed = time.perf_counter() - t0
    err_coarse = np.abs(coarse - spectral) / np.abs(spectral)
    err_fine = np.abs(fine - spectral) / np.abs(spectral)
    ratios = err_coarse / err_fine
    ok = err_coarse.max() <= 1e-2 and ratios.min() >= 3.5 and elapsed < 60.0
    verdict(3, "finite-difference-oracle-agreement", ok,
            f"max rel err {err_coarse.max():.2e}, refinement ratios "
            f"{np.array2string(ratios, precision=2)}, {elapsed:.1f} s")
    assert err_coarse.max() <= 1e-2
    assert ratios.min() >= 3.5
    assert elapsed < 60.0


def test_04_ill_posed_boundary():
    basis = make_dirichlet_basis(1.0, 128)
    params = AveragingParams(r=0.0 + 0.0j, T=2.0 / np.pi)
    absz = np.abs(zeta_factors(basis, params).values)
    report = conditioning_report(basis, params)
    mu = power_law_state(basis, 3, 2.0)
    with pytest.raises(DegenerateModeError) as info:
        recover_initial(mu, params)
    named = list(info.value.modes)
    ok = (
        absz.max() <= 1e-14
        and report.well_posed is False
        and report.min_abs_zeta <= 1e-14
        and named == list(range(1, 129))
    )
    verdict(4, "ill-posed-boundary", ok,
            f"max |zeta| {absz.max():.2e}, well_posed={report.well_posed}, "
            f"{len(named)}/128 modes named")
    assert absz.max() <= 1e-14
    assert report.well_posed is False
    assert report.min_abs_zeta <= 1e-14
    assert named == list(range(1, 129))


def test_05_norm_preservation():
    basis = make_dirichlet_basis(1.0, 32)
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(1000):
        values = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        xi = ModeCoefficients(values, basis)
        t = rng.uniform(0.0, 50.0)
        moved = propagate(xi, t)
        for order in (0, 1):
            a, b = sobolev_norm(xi, order), sobolev_norm(moved, order)
            worst = max(worst, abs(a - b) / a)
    ok = worst <= 1e-12
    verdict(5, "norm-preservation", ok, f"worst rel drift {worst:.2e} over 1000 draws")
    assert worst <= 1e-12


def test_06_inverse_zeta_bound():
    rng = np.random.default_rng(6)
    violations, worst = 0, 0.0
    for _ in range(1000):
        re = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0)
        r = complex(re, rng.uniform(-50.0, 50.0))
        lam = rng.uniform(-1e3, 1e3)
        T = rng.uniform(0.01, 10.0)
        inv = 1.0 / abs(zeta_factor(r, T, lam))
        bound = np.hypot(re, r.imag - lam) / abs(np.expm1(re * T))
        worst = max(worst, inv / bound)
        if inv > bound * (1.0 + 1e-12):
            violations += 1
    ok = violations == 0
    verdict(6, "inverse-zeta-bound", ok,
            f"{violations}/1000 violations, worst inv/bound {worst:.6f}")
    assert violations == 0


def test_07_shift_path_equivalence():
    basis = make_custom_basis([-2.0, 0.5, 3.0])
    params = AveragingParams(r=1.0 + 0.0j, T=1.0)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        mu = ModeCoefficients(rng.standard_normal(3) + 1j * rng.standard_normal(3), basis)
        direct = recover_initial(mu, params).values
        shifted = recover_via_shift(mu, params).values
        worst = max(worst, np.max(np.abs(shifted - direct)) / np.max(np.abs(direct)))
    ok = worst <= 1e-12
    verdict(7, "shift-path-equivalence", ok, f"worst rel diff {worst:.2e} over 20 seeds")
    assert worst <= 1e-12


def test_08_potential_shift_residual_order():
    basis = make_dirichlet_basis(1.0, 8)
    params = AveragingParams(r=1.0 + 0.0j, T=1.0)
    mu = power_law_state(basis, 5, 2.0)
    lam = basis.lambdas

    def residual(points):
        times = np.linspace(0.0, 1.0, points)
        dt = times[1] - times[0]
        w = potential_shift_solution(mu, params, times).states
        dwdt = (w[2:] - w[:-2]) / (2.0 * dt)
        mid = w[1:-1]
        res = -1j * dwdt + lam * mid + 1j * params.r * mid
        return np.max(np.linalg.norm(res, axis=1))

    res_coarse, res_fine = residual(1000), residual(10_000)
    order = np.log(res_coarse / res_fine) / np.log(9999.0 / 999.0)
    ok = order >= 1.9
    verdict(8, "potential-shift-residual-order", ok,
            f"residual {res_coarse:.2e} -> {res_fine:.2e}, observed order {order:.3f}")
    assert order >= 1.9


def test_09_noise_amplification_sweep(tmp_path):
    out = tmp_path / "sweep"
    rc = cli_main(["sweep", "--out", str(out), "--noise", "1e-6"])
    assert rc == 0
    lines = (out / "errors.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","), strict=True)) for line in lines[1:]]
    err_h1 = [float(row["error_h1"]) for row in rows]
    monotone = all(b <= a * (1 + 1e-12) for a, b in zip(err_h1, err_h1[1:]))
    excess = [
        (float(row["r_re"]), float(row["amplification"]), float(row["stability_bound"]))
        for row in rows
        if float(row["amplification"]) > float(row["stability_bound"]) * (1 + 1e-12)
    ]
    ok = monotone and not excess
    detail = f"error_h1 monotone={monotone}"
    if excess:
        re, amp, bound = excess[0]
        detail += f", amplification {amp:.1f} > bound {bound:.1f} at r={re:g}"
    verdict(9, "noise-amplification-sweep", ok, detail)
    assert monotone, "recovery error failed to decrease as Re r grew"
    assert not excess, (
        f"amplification exceeded stability_bound at Re r = {[e[0] for e in excess]}"
    )
