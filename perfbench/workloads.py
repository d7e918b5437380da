"""The four workloads: seeded inputs, one op, and the check of its result.

Every input is drawn here from ``numpy.random.default_rng``; the program only
receives the generated arrays and configs.  An op that raises, returns a
wrong result, exits with an unexpected code, or is refused when it should not
be fails; a refusal the inputs call for counts as a success.

The checks compare against references computed here, independently of the
program's kernels: the naive factor (exp(sT) - 1) / s (the parameter ranges
keep |sT| >= 0.0125, so it is accurate to ~1e-14), eigenvalues from their
closed forms, and norms from those eigenvalues.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import schrodavg as sd

ROUNDTRIP_TOL = 1e-12  # acceptance test 01
ORACLE_TOL = 1e-2  # acceptance test 03
REF_TOL = 1e-12  # program vs the references above
SLICE_TOL = 1e-15  # trajectory t = 0 slice vs the recovered state

RE_R = (0.05, 2.0)
IM_R = (-1.0, 1.0)
T_RANGE = (0.25, 2.0)
TRAJECTORY_TIMES = 33
DEGENERATE_T = 2.0 / math.pi  # with r = 0 every Dirichlet mode turns a full revolution


class CheckFailed(Exception):
    pass


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def ref_lambdas(kind: str, N: int) -> np.ndarray:
    """Closed-form eigenvalues on the unit interval."""
    if kind == sd.DIRICHLET:
        return (np.arange(1, N + 1) * np.pi) ** 2
    i = np.arange(N)
    m = np.where(i % 2 == 1, (i + 1) // 2, -(i // 2))  # 0, 1, -1, 2, -2, ...
    return (2.0 * np.pi * m) ** 2


def ref_zeta(r: complex, T: float, lam: np.ndarray) -> np.ndarray:
    s = r - 1j * lam
    return (np.exp(s * T) - 1.0) / s


def ref_norm(values, lam: np.ndarray, order: int) -> float:
    c_A = max(0.0, 1.0 - float(lam.min()))
    w = (1.0, lam + c_A, lam**2 + c_A)[order]
    return float(np.sqrt(np.sum(w * np.abs(values) ** 2)))


def first_state(traj) -> np.ndarray:
    """Coefficients at the first sample time.

    Accepts ``states`` as a tuple of coefficient vectors (today) or as one
    (n_times, N) array, the storage the roadmap plans, so that change can be
    measured without editing the benchmark.
    """
    s0 = traj.states[0]
    return np.asarray(getattr(s0, "values", s0))


def draw_state(rng, basis, decay: float) -> "sd.ModeCoefficients":
    """|c_k| = k^-decay times a seeded factor in [0.5, 1.5), seeded phases."""
    n = basis.mode_count
    k = np.arange(1, n + 1, dtype=float)
    mags = k**-decay * rng.uniform(0.5, 1.5, n)
    return sd.ModeCoefficients(mags * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)), basis)


def draw_params(rng) -> "sd.AveragingParams":
    return sd.AveragingParams(complex(rng.uniform(*RE_R), rng.uniform(*IM_R)), rng.uniform(*T_RANGE))


# --- bulk and sweep: the solve chain ------------------------------------


@dataclass
class SolveInput:
    basis: object
    lam: np.ndarray  # reference eigenvalues
    xi: object
    params: object
    times: np.ndarray
    expect: str | None  # None, "degenerate" or "ill-posed"


class Solve:
    """apply_time_average -> recover_initial -> conditioning_report ->
    reconstruct_solution (33 times) -> trajectory_sup_norm (0, 1) ->
    sobolev_norm (2) [-> stability_bound], alternating Dirichlet and periodic
    bases.  With ``refuse_rate`` > 0 that share of points lies on Re r = 0:
    half at r = 0, T = 2/pi on the Dirichlet basis (every mode degenerate),
    half with seeded Im r and T (ill-posed, no mode degenerate).
    ``speed_probes`` > 0 normalises the op times for the host's speed (see
    worker.SpeedProbe)."""

    in_process = True
    cycle = 2  # one Dirichlet and one periodic op

    def __init__(self, N: int, refuse_rate: float, with_bound: bool, speed_probes: int = 0):
        self.N = N
        self.speed_probes = speed_probes
        self.refuse_rate = refuse_rate
        self.with_bound = with_bound
        self.bases = {
            sd.DIRICHLET: sd.make_dirichlet_basis(1.0, N),
            sd.PERIODIC: sd.make_periodic_basis(1.0, N),
        }
        self.lams = {kind: ref_lambdas(kind, N) for kind in self.bases}

    def inputs(self, rng):
        i = 0
        while True:
            kind = (sd.DIRICHLET, sd.PERIODIC)[i % 2]
            expect = None
            if rng.random() < self.refuse_rate:
                if rng.random() < 0.5:
                    kind, expect = sd.DIRICHLET, "degenerate"
                    params = sd.AveragingParams(0j, DEGENERATE_T)
                else:
                    expect = "ill-posed"
                    params = self._ill_posed_params(rng, self.lams[kind])
            else:
                params = draw_params(rng)
            xi = draw_state(rng, self.bases[kind], 2.0)
            times = np.linspace(0.0, params.T, TRAJECTORY_TIMES)
            yield SolveInput(self.bases[kind], self.lams[kind], xi, params, times, expect)
            i += 1

    @staticmethod
    def _ill_posed_params(rng, lam):
        while True:  # Re r = 0, but keep every factor well away from zero
            params = sd.AveragingParams(complex(0.0, rng.uniform(*IM_R)), rng.uniform(*T_RANGE))
            z = np.abs(ref_zeta(params.r, params.T, lam))
            if z.min() > 1e-8 * max(1.0, z.max()):
                return params

    def op(self, inp: SolveInput) -> dict:
        p = inp.params
        mu = sd.apply_time_average(inp.xi, p)
        if inp.expect:
            out = {"mu": mu, "refusal": None, "bound_refusal": None}
            try:
                sd.recover_initial(mu, p)
            except (sd.DegenerateModeError, sd.IllPosedError) as exc:
                out["refusal"] = exc
            out["report"] = sd.conditioning_report(inp.basis, p)
            if self.with_bound:
                try:
                    sd.stability_bound(p)
                except sd.IllPosedError as exc:
                    out["bound_refusal"] = exc
            return out
        xi_hat = sd.recover_initial(mu, p)
        report = sd.conditioning_report(inp.basis, p)
        traj = sd.reconstruct_solution(mu, p, inp.times)
        out = {
            "mu": mu,
            "xi_hat": xi_hat,
            "report": report,
            "traj": traj,
            "sup0": sd.trajectory_sup_norm(traj, 0),
            "sup1": sd.trajectory_sup_norm(traj, 1),
            "h2": sd.sobolev_norm(mu, 2),
        }
        if self.with_bound:
            out["bound"] = sd.stability_bound(p)
        return out

    def check(self, inp: SolveInput, out: dict) -> None:
        p, xi, lam = inp.params, inp.xi.values, inp.lam
        report = out["report"]
        if inp.expect:
            require(report.well_posed is False, "report on Re r = 0 must say well_posed=False")
            exc = out["refusal"]
            if inp.expect == "degenerate":
                require(isinstance(exc, sd.DegenerateModeError), f"expected DegenerateModeError, got {exc!r}")
                require(list(exc.modes) == list(range(1, self.N + 1)), f"degenerate modes {exc.modes[:5]}...")
            else:
                require(isinstance(exc, sd.IllPosedError), f"expected IllPosedError, got {exc!r}")
            if self.with_bound:
                require(isinstance(out["bound_refusal"], sd.IllPosedError), "stability_bound must refuse Re r = 0")
            return
        z = ref_zeta(p.r, p.T, lam)
        require(rel(out["mu"].values, z * xi) <= REF_TOL, "forward map differs from reference zeta")
        err = rel(out["xi_hat"].values, xi)
        require(err <= ROUNDTRIP_TOL, f"round trip error {err:.3e}")
        require(rel(first_state(out["traj"]), out["xi_hat"].values) <= SLICE_TOL, "t = 0 slice != recovered state")
        norm0 = ref_norm(xi, lam, 0)
        require(abs(out["sup0"] - norm0) <= REF_TOL * norm0, "order-0 sup norm != ||xi||_0 (unitarity)")
        norm1 = ref_norm(xi, lam, 1)
        require(abs(out["sup1"] - norm1) <= REF_TOL * norm1, "order-1 sup norm != ||xi||_1")
        norm2 = ref_norm(out["mu"].values, lam, 2)
        require(abs(out["h2"] - norm2) <= REF_TOL * norm2, "order-2 norm of mu differs from reference")
        require(report.well_posed is True, "report must say well_posed for Re r != 0")
        zmin = float(np.abs(z).min())
        require(abs(report.min_abs_zeta - zmin) <= REF_TOL * zmin, "min |zeta| differs from reference")
        if self.with_bound:
            bound = (1.0 + abs(p.r)) / abs(math.expm1(p.r.real * p.T))
            require(abs(out["bound"] - bound) <= REF_TOL * bound, "stability_bound differs from reference")


# --- oracle ---------------------------------------------------------------


@dataclass
class OracleInput:
    xi: object
    params: object


class Oracle:
    """oracle_mu_coeffs of the first 4 Dirichlet modes at M = 2048, dt = 1e-4,
    T = 1 (10^4 CN steps), checked against apply_time_average per mode.

    r is real, as in acceptance test 03: with Im r near 0.85 modes 3 and 4
    come near resonance (|zeta_k| ~ Re r / lambda_k), and the grid's absolute
    error of ~1e-5 then exceeds the 1e-2 relative tolerance (7.4e-2 seen at
    r = 0.05 + 0.85i).  For real r in [0.05, 2] the worst mode stays <= 5e-3.
    """

    in_process = True
    cycle = 1
    speed_probes = 0  # NumPy/LAPACK-bound: not normalised (see worker.SpeedProbe)
    MODES, M, DT, T = 4, 2048, 1e-4, 1.0

    def __init__(self):
        self.basis = sd.make_dirichlet_basis(1.0, self.MODES)
        self.lam = ref_lambdas(sd.DIRICHLET, self.MODES)
        self.fd = sd.FdConfig(self.M, self.DT)

    def inputs(self, rng):
        while True:
            params = sd.AveragingParams(complex(rng.uniform(*RE_R), 0.0), self.T)
            yield OracleInput(draw_state(rng, self.basis, 1.0), params)

    def op(self, inp: OracleInput):
        return sd.apply_time_average(inp.xi, inp.params), sd.oracle_mu_coeffs(inp.xi, inp.params, self.fd)

    def check(self, inp: OracleInput, out) -> None:
        spectral, oracle = out[0].values, out[1].values
        z = ref_zeta(inp.params.r, inp.params.T, self.lam)
        require(rel(spectral, z * inp.xi.values) <= REF_TOL, "forward map differs from reference zeta")
        err = float(np.max(np.abs(oracle - spectral) / np.abs(spectral)))
        require(err <= ORACLE_TOL, f"oracle vs spectral max rel error {err:.3e}")


# --- cli --------------------------------------------------------------------

# label, command and extra flags, expected exit code
SESSION = (
    ("forward", ["forward"], 0),
    ("average", ["average"], 0),
    ("recover", ["recover"], 0),
    ("roundtrip", ["roundtrip"], 0),
    ("conditioning", ["conditioning"], 0),
    ("oracle-check", ["oracle-check"], 0),
    ("sweep", ["sweep"], 0),
    ("sweep-noise", ["sweep", "--noise", "1e-6"], 0),
    ("conditioning-r0", ["conditioning", "--r-re", "0", "--T", repr(DEGENERATE_T)], 2),
)
SESSION_LABELS = tuple(label for label, _, _ in SESSION)
CLI_N = 4096


@dataclass
class CliInput:
    label: str
    argv: list
    expected_rc: int
    out: Path


class Cli:
    """One ``schrodavg`` command per op, in a fresh interpreter (subprocess)
    or, with ``in_process``, through ``schrodavg.cli.main``.  A session is
    the nine entries of SESSION with one seeded --seed."""

    cycle = len(SESSION)
    speed_probes = 8  # kernel runs per speed probe on each side of an op (see worker.SpeedProbe)

    def __init__(self, workdir: Path, in_process: bool = False):
        self.workdir = workdir
        self.in_process = in_process
        self.cli = importlib.import_module("schrodavg.cli")

    def inputs(self, rng):
        while True:
            seed = str(int(rng.integers(0, 2**31 - 1)))
            for label, argv, rc in SESSION:
                out = self.workdir / label
                full = argv + ["--N", str(CLI_N), "--seed", seed, "--out", str(out)]
                yield CliInput(label, full, rc, out)

    def prepare(self, inp: CliInput) -> None:
        shutil.rmtree(inp.out, ignore_errors=True)

    def op(self, inp: CliInput):
        if self.in_process:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = self.cli.main(inp.argv)
            return rc, err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "schrodavg.cli", *inp.argv],
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stderr

    def check(self, inp: CliInput, out) -> dict:
        rc, stderr = out
        require(rc == inp.expected_rc, f"{inp.label}: exit code {rc}, expected {inp.expected_rc}: {stderr[-300:]}")
        report_path = inp.out / "report.json"
        report = json.loads(report_path.read_text())
        require(report.get("command") == inp.argv[0], f"{inp.label}: report names {report.get('command')!r}")
        outputs = [Path(p) for p in report.get("outputs", [])]
        require(outputs and all(p.is_file() for p in outputs), f"{inp.label}: missing listed output")
        errors = report.get("errors") or {}
        if inp.label == "roundtrip":
            require(errors["roundtrip_rel_h"] <= ROUNDTRIP_TOL, f"roundtrip_rel_h {errors['roundtrip_rel_h']}")
        if inp.label == "oracle-check":
            require(errors["max_rel_error"] <= ORACLE_TOL, f"oracle max_rel_error {errors['max_rel_error']}")
        if inp.expected_rc == 2:
            require(report.get("well_posed") is False, f"{inp.label}: report must say well_posed=false")
            require("ill-posed-parameters" in stderr, f"{inp.label}: no ill-posed diagnostic")
        written = sum(p.stat().st_size for p in outputs) + report_path.stat().st_size
        return {"label": inp.label, "bytes": written, "total_s": report["timings"]["total_s"]}


def make(name: str, workdir: Path):
    """The workload called ``name``; building it is part of set-up."""
    if name == "cli":
        return Cli(workdir)
    if name == "bulk":
        return Solve(2**18, refuse_rate=0.0, with_bound=False)
    if name == "sweep":
        return Solve(64, refuse_rate=0.05, with_bound=True, speed_probes=1)
    if name == "oracle":
        return Oracle()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("cli", "bulk", "sweep", "oracle")
