"""Experiment runner.

Subcommands: forward, average, recover, roundtrip, conditioning, oracle-check,
sweep.  Configuration comes from an optional JSON file plus flag overrides;
outputs are CSV files with 17-significant-digit formatting (byte-identical
for identical configs) and a report.json per run.

Exit codes: 0 success, 1 configuration error, 2 ill-posed parameters,
3 degenerate modes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .averaging import (
    AveragingParams,
    ZetaFactors,
    apply_time_average,
    forward_smoothing_constant,
    zeta_factors,
    zeta_to_csv,
)
from .errors import DegenerateModeError, IllPosedError, InvalidArgumentError, SchrodavgError
from .evolve import sample_trajectory, trajectory_sup_norm, trajectory_to_csv
from .fd_oracle import FdConfig, oracle_mu_coeffs
from .recover import (
    _inverted_factors,
    conditioning_report,
    recover_initial,
    report_summary,
    report_to_csv,
    stability_bound,
)
from .spectral import (
    CUSTOM,
    DIRICHLET,
    PERIODIC,
    ModeCoefficients,
    _write_csv,
    make_custom_basis,
    make_dirichlet_basis,
    make_periodic_basis,
    save_coefficients,
    sobolev_norm,
)

COMMANDS = ("forward", "average", "recover", "roundtrip", "conditioning", "oracle-check", "sweep")
SWEEP_DEFAULT = (0.05, 0.1, 0.2, 0.5, 1.0)


@dataclass
class ExperimentConfig:
    kind: str = DIRICHLET
    L: float = 1.0
    N: int = 64
    c_A: float | None = None
    lambdas: list | None = None
    r: complex = complex(1.0, 0.0)
    T: float = 1.0
    seed: int = 1234
    decay: float | None = None  # default 2 for state draws, 3 for data draws
    noise: float = 0.0
    coeffs: np.ndarray | None = None
    oracle_M: int = 256
    oracle_dt: float = 1.0e-3
    oracle_modes: int = 2
    trajectory_steps: int = 32
    sweep_re: tuple = SWEEP_DEFAULT
    out: Path = Path("out")


@dataclass
class RunReport:
    command: str
    well_posed: bool | None = None
    norms: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    conditioning: dict | None = None
    timings: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "well_posed": self.well_posed,
            "norms": self.norms,
            "errors": self.errors,
            "conditioning": self.conditioning,
            "timings": self.timings,
            "outputs": self.outputs,
        }


def load_config(path=None) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidArgumentError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidArgumentError("config must be a JSON object")
    try:
        basis = obj.get("basis", {})
        if basis:
            cfg.kind = basis.get("kind", cfg.kind)
            cfg.L = float(basis.get("L", cfg.L))
            cfg.N = int(basis.get("N", cfg.N))
            if basis.get("cA") is not None:
                cfg.c_A = float(basis["cA"])
            if basis.get("lambdas") is not None:
                cfg.lambdas = [float(x) for x in basis["lambdas"]]
        if "r" in obj:
            re, im = obj["r"]
            cfg.r = complex(float(re), float(im))
        if "T" in obj:
            cfg.T = float(obj["T"])
        if "seed" in obj:
            cfg.seed = int(obj["seed"])
        if "decay" in obj:
            cfg.decay = float(obj["decay"])
        if "noise" in obj:
            cfg.noise = float(obj["noise"])
        if "coeffs" in obj:
            cfg.coeffs = np.array([complex(re, im) for re, im in obj["coeffs"]])
        oracle = obj.get("oracle", {})
        if oracle:
            cfg.oracle_M = int(oracle.get("M", cfg.oracle_M))
            cfg.oracle_dt = float(oracle.get("dt", cfg.oracle_dt))
            cfg.oracle_modes = int(oracle.get("modes", cfg.oracle_modes))
        if "trajectory_steps" in obj:
            cfg.trajectory_steps = int(obj["trajectory_steps"])
        if "sweep_r_re" in obj:
            cfg.sweep_re = tuple(float(x) for x in obj["sweep_r_re"])
        if "out" in obj:
            cfg.out = Path(obj["out"])
    except (TypeError, ValueError, KeyError) as exc:
        raise InvalidArgumentError(f"malformed config: {exc}") from exc
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.noise < 0:
        raise InvalidArgumentError(f"noise must be >= 0, got {cfg.noise}")
    if cfg.decay is not None and cfg.decay <= 1:
        # finite order-1 norms at every truncation level need p > 1
        raise InvalidArgumentError(f"decay exponent must exceed 1, got {cfg.decay}")
    if cfg.trajectory_steps < 1:
        raise InvalidArgumentError("trajectory_steps must be >= 1")


def _build_basis(cfg: ExperimentConfig):
    if cfg.kind == DIRICHLET:
        return make_dirichlet_basis(cfg.L, cfg.N, cfg.c_A)
    if cfg.kind == PERIODIC:
        return make_periodic_basis(cfg.L, cfg.N, cfg.c_A)
    if cfg.kind == CUSTOM:
        if cfg.lambdas is None:
            raise InvalidArgumentError("custom basis requires basis.lambdas in the config")
        return make_custom_basis(cfg.lambdas, cfg.L, cfg.c_A)
    raise InvalidArgumentError(f"unknown basis kind {cfg.kind!r}")


def seeded_coefficients(basis, seed: int, decay: float) -> ModeCoefficients:
    """|c_k| = k^-decay with uniformly random phases, k = 1-based position."""
    rng = np.random.default_rng(seed)
    k = np.arange(1, basis.mode_count + 1, dtype=float)
    phases = rng.uniform(0.0, 2.0 * np.pi, basis.mode_count)
    return ModeCoefficients(k**-decay * np.exp(1j * phases), basis)


def _perturbed(c: ModeCoefficients, eps: float, seed: int) -> ModeCoefficients:
    """Relative per-mode perturbation of magnitude eps with seeded phases."""
    if eps == 0.0:
        return c
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, c.values.size)
    return ModeCoefficients(c.values + eps * np.abs(c.values) * np.exp(1j * phases), c.basis)


def _initial_state(cfg: ExperimentConfig, basis, default_decay: float) -> ModeCoefficients:
    if cfg.coeffs is not None:
        return ModeCoefficients(cfg.coeffs, basis)
    return seeded_coefficients(basis, cfg.seed, cfg.decay if cfg.decay is not None else default_decay)


def _rel_err(a: ModeCoefficients, b: ModeCoefficients, order: int) -> float:
    diff = ModeCoefficients(a.values - b.values, a.basis)
    ref = sobolev_norm(b, order)
    return sobolev_norm(diff, order) / ref if ref > 0 else sobolev_norm(diff, order)


def run(cfg: ExperimentConfig, command: str) -> RunReport:
    """Execute one pipeline, writing artifacts under cfg.out."""
    if command not in COMMANDS:
        raise InvalidArgumentError(f"unknown command {command!r}")
    _validate(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    report = RunReport(command=command)
    t0 = time.perf_counter()

    handler = {
        "forward": _run_forward,
        "average": _run_average,
        "recover": _run_recover,
        "roundtrip": _run_roundtrip,
        "conditioning": _run_conditioning,
        "oracle-check": _run_oracle_check,
        "sweep": _run_sweep,
    }[command]
    handler(cfg, out, report)

    report.timings["total_s"] = time.perf_counter() - t0
    report_path = out / "report.json"
    report_path.write_text(json.dumps(report.to_json(), indent=2) + "\n")
    report.outputs.append(str(report_path))
    return report


def _run_forward(cfg, out, report):
    basis = _build_basis(cfg)
    xi = _initial_state(cfg, basis, default_decay=2.0)
    traj = sample_trajectory(xi, cfg.T, cfg.trajectory_steps)
    trajectory_to_csv(traj, out / "trajectory.csv")
    report.outputs += [str(out / "trajectory.csv"), str(out / "trajectory.meta.json")]
    report.norms = {
        "xi_h": sobolev_norm(xi, 0),
        "xi_h1": sobolev_norm(xi, 1),
        "sup_h": trajectory_sup_norm(traj, 0),
        "sup_h1": trajectory_sup_norm(traj, 1),
    }


def _run_average(cfg, out, report):
    basis = _build_basis(cfg)
    params = AveragingParams(cfg.r, cfg.T)
    xi = _initial_state(cfg, basis, default_decay=2.0)
    mu = apply_time_average(xi, params)
    zeta_to_csv(zeta_factors(basis, params), out / "zeta.csv")
    save_coefficients(out / "mu.json", mu)
    report.outputs += [str(out / "zeta.csv"), str(out / "mu.json")]
    report.norms = {
        "xi_h1": sobolev_norm(xi, 1),
        "mu_h2": sobolev_norm(mu, 2),
        "forward_smoothing_constant": forward_smoothing_constant(basis, params),
    }


def _run_recover(cfg, out, report):
    basis = _build_basis(cfg)
    params = AveragingParams(cfg.r, cfg.T)
    mu = _initial_state(cfg, basis, default_decay=3.0)
    mu_used = _perturbed(mu, cfg.noise, cfg.seed + 1)
    xi_hat = recover_initial(mu_used, params)
    traj = sample_trajectory(xi_hat, cfg.T, cfg.trajectory_steps)
    trajectory_to_csv(traj, out / "trajectory.csv")
    rep = conditioning_report(basis, params)
    zeta_to_csv(ZetaFactors(rep.zeta, basis), out / "zeta.csv")
    save_coefficients(out / "xi.json", xi_hat)
    report.outputs += [
        str(out / "trajectory.csv"),
        str(out / "trajectory.meta.json"),
        str(out / "zeta.csv"),
        str(out / "xi.json"),
    ]
    report.well_posed = rep.well_posed
    report.conditioning = report_summary(rep)
    report.norms = {
        "mu_h2": sobolev_norm(mu_used, 2),
        "xi_h": sobolev_norm(xi_hat, 0),
        "xi_h1": sobolev_norm(xi_hat, 1),
        "sup_h1": trajectory_sup_norm(traj, 1),
    }


def _run_roundtrip(cfg, out, report):
    basis = _build_basis(cfg)
    params = AveragingParams(cfg.r, cfg.T)
    xi = _initial_state(cfg, basis, default_decay=2.0)
    mu = apply_time_average(xi, params)
    mu_used = _perturbed(mu, cfg.noise, cfg.seed + 1)
    xi_hat = recover_initial(mu_used, params)
    zeta_to_csv(zeta_factors(basis, params), out / "zeta.csv")
    abs_err = np.abs(xi_hat.values - xi.values)
    denom = np.abs(xi.values)
    rel_err = np.divide(abs_err, denom, out=abs_err.copy(), where=denom > 0)
    _write_csv(out / "errors.csv", "k,abs_error,rel_error",
               [range(1, basis.mode_count + 1), abs_err, rel_err])
    report.outputs += [str(out / "zeta.csv"), str(out / "errors.csv")]
    report.well_posed = cfg.r.real != 0.0
    report.errors = {
        "roundtrip_rel_h": _rel_err(xi_hat, xi, 0),
        "roundtrip_rel_h1": _rel_err(xi_hat, xi, 1),
        "noise": cfg.noise,
    }
    report.norms = {"xi_h": sobolev_norm(xi, 0), "mu_h2": sobolev_norm(mu, 2)}


def _run_conditioning(cfg, out, report):
    basis = _build_basis(cfg)
    params = AveragingParams(cfg.r, cfg.T)
    rep = conditioning_report(basis, params)
    report_to_csv(rep, out / "zeta.csv")
    report.outputs.append(str(out / "zeta.csv"))
    report.well_posed = rep.well_posed
    report.conditioning = report_summary(rep)


def _run_oracle_check(cfg, out, report):
    if cfg.kind != DIRICHLET:
        raise InvalidArgumentError("oracle-check supports Dirichlet bases only")
    n_cmp = min(cfg.oracle_modes, cfg.N)
    basis = make_dirichlet_basis(cfg.L, n_cmp, cfg.c_A)
    params = AveragingParams(cfg.r, cfg.T)
    xi = seeded_coefficients(basis, cfg.seed, cfg.decay if cfg.decay is not None else 2.0)
    spectral_mu = apply_time_average(xi, params)
    fd = FdConfig(cfg.oracle_M, cfg.oracle_dt, cfg.L)
    t0 = time.perf_counter()
    oracle_mu = oracle_mu_coeffs(xi, params, fd)
    report.timings["oracle_s"] = time.perf_counter() - t0
    rel = np.abs(oracle_mu.values - spectral_mu.values) / np.abs(spectral_mu.values)
    spec, orac = spectral_mu.values, oracle_mu.values
    _write_csv(out / "errors.csv", "k,spectral_re,spectral_im,oracle_re,oracle_im,rel_error", [
        range(1, n_cmp + 1), spec.real, spec.imag, orac.real, orac.imag, rel,
    ])
    report.outputs.append(str(out / "errors.csv"))
    report.errors = {"max_rel_error": float(rel.max()), "modes_compared": n_cmp}


def _run_sweep(cfg, out, report):
    basis = _build_basis(cfg)
    # one data draw and one noise draw, shared by every sweep point, so the
    # error column isolates the dependence on Re r
    mu = _initial_state(cfg, basis, default_decay=3.0)
    delta = _perturbed(mu, cfg.noise, cfg.seed + 1).values - mu.values
    noise_h2 = sobolev_norm(ModeCoefficients(delta, basis), 2)
    r_re = sorted(float(x) for x in cfg.sweep_re)
    min_abs, errs_h, errs_h1, amps, bounds = [], [], [], [], []
    for re in r_re:
        params = AveragingParams(complex(re, cfg.r.imag), cfg.T)
        # one factor evaluation per point; delta / z would move the error bits
        z = _inverted_factors(basis, params, False)
        diff = ModeCoefficients((mu.values + delta) / z - mu.values / z, basis)
        err_h1 = sobolev_norm(diff, 1)
        min_abs.append(float(np.abs(z).min()))
        errs_h.append(sobolev_norm(diff, 0))
        errs_h1.append(err_h1)
        amps.append(err_h1 / noise_h2 if noise_h2 > 0 else 0.0)
        bounds.append(stability_bound(params))
    header = "r_re,min_abs_zeta,error_h,error_h1,noise_h2,amplification,stability_bound"
    _write_csv(out / "errors.csv", header,
               [r_re, min_abs, errs_h, errs_h1, [noise_h2] * len(r_re), amps, bounds])
    report.outputs.append(str(out / "errors.csv"))
    report.errors = {
        "noise": cfg.noise,
        "noise_h2": noise_h2,
        "max_amplification": max(amps) if amps else 0.0,
        "monotone_error_h1": all(b <= a * (1 + 1e-12) for a, b in zip(errs_h1, errs_h1[1:])),
    }


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # flag misuse is a config error: exit 1, not 2
        self.print_usage(sys.stderr)
        print(json.dumps({"error": "config-error", "message": message}), file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="schrodavg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--r-re", type=float, default=None, help="override Re r")
        p.add_argument("--r-im", type=float, default=None, help="override Im r")
        p.add_argument("--T", type=float, default=None, help="override horizon T")
        p.add_argument("--N", type=int, default=None, help="override mode count")
        p.add_argument("--seed", type=int, default=None, help="override RNG seed")
        p.add_argument("--noise", type=float, default=None, help="override noise amplitude")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> None:
    if args.r_re is not None:
        cfg.r = complex(args.r_re, cfg.r.imag)
    if args.r_im is not None:
        cfg.r = complex(cfg.r.real, args.r_im)
    if args.T is not None:
        cfg.T = args.T
    if args.N is not None:
        cfg.N = args.N
    if args.seed is not None:
        cfg.seed = args.seed
    if args.noise is not None:
        cfg.noise = args.noise
    if args.out is not None:
        cfg.out = args.out


def _diagnostic(kind: str, exc: Exception) -> None:
    payload = {"error": kind, "message": str(exc)}
    if isinstance(exc, DegenerateModeError):
        payload["modes"] = exc.modes
    print(json.dumps(payload), file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        report = run(cfg, args.command)
    except IllPosedError as exc:
        _diagnostic("ill-posed-parameters", exc)
        return 2
    except DegenerateModeError as exc:
        _diagnostic("degenerate-mode", exc)
        return 3
    except (InvalidArgumentError, SchrodavgError) as exc:
        _diagnostic("config-error", exc)
        return 1
    if args.command == "conditioning" and report.well_posed is False:
        # diagnostic runs still flag the ill-posed regime through the exit code
        _diagnostic("ill-posed-parameters", IllPosedError("Re r = 0 (report written)"))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
