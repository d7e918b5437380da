"""Experiment runner.

Commands: forward, average, recover, roundtrip, conditioning, oracle-check,
sweep.  Configuration comes from an optional JSON file plus flag overrides,
both read through one table, the fields of ExperimentConfig; outputs are CSV
files with 17-significant-digit formatting (byte-identical for identical
configs) and a report.json per run.

Exit codes: 0 success, 1 configuration error or an output that cannot be
written, 2 ill-posed parameters, 3 degenerate modes, 4 numeric overflow.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .averaging import (
    AveragingParams,
    apply_time_average,
    forward_smoothing_constant,
    zeta_factors,
    zeta_to_csv,
)
from .errors import DegenerateModeError, IllPosedError, InvalidArgumentError, NumericError, SchrodavgError
from .errors import _complex, _count, _positive, _vector
from .evolve import sample_trajectory, trajectory_sup_norm, trajectory_to_csv
from .fd_oracle import FdConfig, oracle_mu_coeffs
from .recover import conditioning_report, recover_initial, report_to_csv, stability_bound
from .spectral import (
    CUSTOM,
    DIRICHLET,
    ModeCoefficients,
    _complex_pairs,
    _kind,
    _read_json,
    _result,
    _write_csv,
    basis_from_json,
    save_coefficients,
    sobolev_norm,
)


def _section(x, name: str) -> dict:
    """A config object; null or an empty value counts as absent ({})."""
    if not isinstance(x or {}, dict):
        raise InvalidArgumentError(f"{name} must be a JSON object, got {x!r}")
    return x or {}


def _gather(obj: dict, paths, prefix: str = "") -> dict:
    """{path: value} of each of the rows' ``paths`` that the config object
    ``obj`` sets.  A key at any depth on no path is refused, naming its dotted
    path and the known path it resembles (difflib)."""
    keys = {p[len(prefix):].split(".")[0] for p in paths if p.startswith(prefix)}
    values = {}
    for key, value in obj.items():
        if key not in keys:
            import difflib  # on refusal only: 1.7 ms of every run's start-up otherwise

            known = {f"{prefix}{k}".lower(): f"{prefix}{k}" for k in keys}
            near = difflib.get_close_matches(f"{prefix}{key}".lower(), known, n=1)
            hint = f" (did you mean {known[near[0]]}?)" if near else ""
            raise InvalidArgumentError(f"unknown config key {prefix}{key}{hint}")
        if prefix + key in paths:
            values[prefix + key] = value
        else:  # a section that holds rows, as basis and oracle
            values.update(_gather(_section(value, prefix + key), paths, prefix + key + "."))
    return values


def _path(x, name: str) -> Path:
    if not isinstance(x, (str, os.PathLike)):
        raise InvalidArgumentError(f"{name} must be a path, got {x!r}")
    return Path(x)


def _setting(default, path: str, rule, *flags: str, decode=None, **bounds):
    """One row of the config table: the field's default, its dotted path in
    the JSON config, the argument rule (called with ``bounds`` and the path
    as the name) that checks and converts its value, the flags that
    override it, and the decoder of a value JSON writes as [re, im] pairs."""
    return field(default=default, metadata={
        "path": path, "rule": functools.partial(rule, **bounds), "flags": flags, "decode": decode})


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Every setting of a run; each field is one row of the config table that
    load_config and build_parser read, and whose rule every value passes
    through here, a hand-built config's too.  A field whose default is None
    may stay None.  Fields with flags come first, in the flags' order;
    --r-re and --r-im set the real and imaginary part of r."""

    out: Path = _setting(Path("out"), "out", _path, "--out")
    r: complex = _setting(complex(1.0, 0.0), "r", _complex, "--r-re", "--r-im", decode=_complex_pairs)
    T: float = _setting(1.0, "T", _positive, "--T")
    # None: 64 (custom: one mode per eigenvalue)
    N: int | None = _setting(None, "basis.N", _count, "--N", least=1)
    # numpy's generators take no negative seed
    seed: int = _setting(1234, "seed", _count, "--seed", least=0, most=np.inf)
    noise: float = _setting(0.0, "noise", _positive, "--noise", least=0.0, strict=False)
    # the basis_from_json keys besides N; cA None: the default shift, lambdas: custom only
    kind: str = _setting(DIRICHLET, "basis.kind", _kind)
    L: float = _setting(1.0, "basis.L", _positive)
    cA: float | None = _setting(None, "basis.cA", _positive, least=0.0, strict=False)
    lambdas: np.ndarray | None = _setting(None, "basis.lambdas", _vector, dtype=float, ascending=True)
    # None: 2 for state draws, 3 for data draws; finite order-1 norms at every
    # truncation level need decay > 1
    decay: float | None = _setting(None, "decay", _positive, least=1.0)
    coeffs: np.ndarray | None = _setting(None, "coeffs", _vector, decode=_complex_pairs, dtype=complex)
    oracle_M: int = _setting(256, "oracle.M", _count, least=3, most=2**53 - 2)  # M + 2 grid points <= 2^53
    oracle_dt: float = _setting(1.0e-3, "oracle.dt", _positive)
    oracle_modes: int = _setting(2, "oracle.modes", _count, least=1)
    trajectory_steps: int = _setting(32, "trajectory_steps", _count, least=1)
    sweep_re: np.ndarray = _setting((0.05, 0.1, 0.2, 0.5, 1.0), "sweep_r_re", _vector, dtype=float, least=0)

    def __post_init__(self):  # the one check of every setting
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                object.__setattr__(self, f.name, f.metadata["rule"](value, name=f.metadata["path"]))


def _number(text: str):
    """A numeric flag's value: an integer exactly (a --seed above 2^53 too),
    else a float, else the text, which the row's rule refuses by name."""
    for read in (int, float):
        try:
            return read(text)
        except ValueError:
            pass
    return text


def load_config(path=None, args=None) -> ExperimentConfig:
    """The JSON config at ``path`` (if any) with the flags that ``args`` (from
    build_parser) gives on top, gathered along the ExperimentConfig rows,
    whose rules then check them."""
    obj = {} if path is None else _section(_read_json(path, "config"), "config")
    in_file = _gather(obj, {f.metadata["path"] for f in fields(ExperimentConfig)})
    values = {}
    for f in fields(ExperimentConfig):
        at, decode = f.metadata["path"], f.metadata["decode"]
        if at in in_file:
            values[f.name] = decode(in_file[at], at) if decode else in_file[at]
        for i, flag in enumerate(f.metadata["flags"]):
            given = getattr(args, flag[2:].replace("-", "_"), None)
            if given is not None and f.name == "r":  # one part; the other from the file or the default
                r = values.get("r", f.default)
                given = _complex_pairs([given, r.imag] if i == 0 else [r.real, given], "r")
            if given is not None:
                values[f.name] = given
    return ExperimentConfig(**values)


def _perturbed(c: ModeCoefficients, eps: float, seed: int) -> ModeCoefficients:
    """Relative per-mode perturbation of magnitude eps with seeded phases."""
    if eps == 0.0:
        return c
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, c.values.size)
    return _result(c.values + eps * np.abs(c.values) * np.exp(1j * phases), c.basis, "perturbed data")


def _initial_state(cfg: ExperimentConfig, basis, default_decay: float) -> ModeCoefficients:
    """The coeffs row, else |c_k| = k^-decay with uniformly random phases
    drawn from the seed, k = 1-based position."""
    if cfg.coeffs is not None:
        return ModeCoefficients(cfg.coeffs, basis)
    k = np.arange(1, basis.mode_count + 1, dtype=float)
    phases = np.random.default_rng(cfg.seed).uniform(0.0, 2.0 * np.pi, basis.mode_count)
    decay = cfg.decay if cfg.decay is not None else default_decay
    return _result(k**-decay * np.exp(1j * phases), basis, "seeded state")


def _relative(err, ref) -> np.ndarray:
    """err / ref, elementwise; a zero reference gives the absolute error err."""
    err, ref = np.asarray(err, dtype=float), np.asarray(ref, dtype=float)
    return np.divide(err, ref, out=err.copy(), where=ref > 0)


def run(cfg: ExperimentConfig, command: str) -> dict:
    """Execute one pipeline, writing artifacts under cfg.out and report.json
    from its handler's sections.  Returns the report, its path then appended to its outputs."""
    if command not in COMMANDS:
        raise InvalidArgumentError(f"unknown command {command!r}")
    cfg.out.mkdir(parents=True, exist_ok=True)
    handler, decay, files, count = _HANDLERS[command]
    t0 = time.perf_counter()

    N = 64 if cfg.N is None and cfg.kind != CUSTOM else cfg.N  # custom: one per eigenvalue
    if command == "oracle-check" and cfg.kind == DIRICHLET:  # oracle_mu_coeffs refuses other kinds
        N = min(cfg.oracle_modes, N)  # the grid compares the lowest modes only
        if cfg.coeffs is not None and cfg.coeffs.size != N == cfg.oracle_modes:  # oracle.modes set N
            raise InvalidArgumentError(
                f"coeffs holds {cfg.coeffs.size} modes; oracle-check compares {N} (oracle.modes)")
    params = AveragingParams(cfg.r, cfg.T)
    sizing = "basis.N"  # the path of the count that sizes the arrays being made
    try:
        basis = basis_from_json({"kind": cfg.kind, "L": cfg.L, "N": N, "cA": cfg.cA, "lambdas": cfg.lambdas})
        state = None if decay is None else _initial_state(cfg, basis, decay)
        sizing = count
        sections = handler(cfg, basis, params, state)
    except MemoryError as exc:  # the count passed its rule, but its arrays do not fit
        value = next(getattr(cfg, f.name) for f in fields(cfg) if f.metadata["path"] == sizing)
        raise InvalidArgumentError(f"{sizing} = {value} is too large to allocate: {exc}") from exc

    report = {"command": command, "well_posed": None, "norms": {}, "errors": {},
              "conditioning": None, "timings": {}, "outputs": [str(cfg.out / f) for f in files]}
    report.update(sections)  # keeps the keys' order
    report["timings"]["total_s"] = time.perf_counter() - t0
    report_path = cfg.out / "report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    report["outputs"].append(str(report_path))
    return report


def _conditioning(rep) -> dict:
    """report.json's well_posed and conditioning sections from a
    ConditioningReport; a value that is not finite reads null, as JSON has no inf or NaN."""
    summary = {"well_posed": rep.well_posed, "min_abs_zeta": rep.min_abs_zeta,
               "stability_bound": rep.stability_bound, "q": rep.q}
    return {"well_posed": rep.well_posed,
            "conditioning": {key: x if math.isfinite(x) else None for key, x in summary.items()}}


def _trajectory(cfg, xi):
    """The trajectory of xi over [0, T], written to trajectory.csv."""
    traj = sample_trajectory(xi, cfg.T, cfg.trajectory_steps)
    trajectory_to_csv(traj, cfg.out / "trajectory.csv")
    return traj


def _run_forward(cfg, basis, _, xi):
    traj = _trajectory(cfg, xi)
    return {"norms": {
        "xi_h": sobolev_norm(xi, 0),
        "xi_h1": sobolev_norm(xi, 1),
        "sup_h": trajectory_sup_norm(traj, 0),
        "sup_h1": trajectory_sup_norm(traj, 1),
    }}


def _run_average(cfg, basis, params, xi):
    mu = apply_time_average(xi, params)
    zeta_to_csv(zeta_factors(basis, params), cfg.out / "zeta.csv")
    save_coefficients(cfg.out / "mu.json", mu)
    return {"norms": {
        "xi_h1": sobolev_norm(xi, 1),
        "mu_h2": sobolev_norm(mu, 2),
        "forward_smoothing_constant": forward_smoothing_constant(basis, params),
    }}


def _run_recover(cfg, basis, params, mu):
    mu_used = _perturbed(mu, cfg.noise, cfg.seed + 1)
    xi_hat = recover_initial(mu_used, params)
    traj = _trajectory(cfg, xi_hat)
    rep = conditioning_report(basis, params)
    zeta_to_csv(zeta_factors(basis, params), cfg.out / "zeta.csv")
    save_coefficients(cfg.out / "xi.json", xi_hat)
    return {**_conditioning(rep), "norms": {
        "mu_h2": sobolev_norm(mu_used, 2),
        "xi_h": sobolev_norm(xi_hat, 0),
        "xi_h1": sobolev_norm(xi_hat, 1),
        "sup_h1": trajectory_sup_norm(traj, 1),
    }}


def _run_roundtrip(cfg, basis, params, xi):
    mu = apply_time_average(xi, params)
    mu_used = _perturbed(mu, cfg.noise, cfg.seed + 1)
    xi_hat = recover_initial(mu_used, params)
    zeta_to_csv(zeta_factors(basis, params), cfg.out / "zeta.csv")
    err = _result(xi_hat.values - xi.values, basis, "error")
    abs_err = np.abs(err.values)
    _write_csv(cfg.out / "errors.csv", "k,abs_error,rel_error",
               [range(1, basis.mode_count + 1), abs_err, _relative(abs_err, np.abs(xi.values))])
    return {
        "well_posed": True,  # recover_initial refused Re r = 0
        "errors": {
            "roundtrip_rel_h": float(_relative(sobolev_norm(err, 0), sobolev_norm(xi, 0))),
            "roundtrip_rel_h1": float(_relative(sobolev_norm(err, 1), sobolev_norm(xi, 1))),
            "noise": cfg.noise,
        },
        "norms": {"xi_h": sobolev_norm(xi, 0), "mu_h2": sobolev_norm(mu, 2)},
    }


def _run_conditioning(cfg, basis, params, _):
    rep = conditioning_report(basis, params)
    report_to_csv(rep, cfg.out / "zeta.csv")
    return _conditioning(rep)


def _run_oracle_check(cfg, basis, params, xi):
    n_cmp = basis.mode_count
    spectral_mu = apply_time_average(xi, params)
    fd = FdConfig(cfg.oracle_M, cfg.oracle_dt, basis.domain_length)
    t0 = time.perf_counter()
    oracle_mu = oracle_mu_coeffs(xi, params, fd)
    oracle_s = time.perf_counter() - t0
    spec, orac = spectral_mu.values, oracle_mu.values
    rel = _relative(np.abs(orac - spec), np.abs(spec))
    _write_csv(cfg.out / "errors.csv", "k,spectral_re,spectral_im,oracle_re,oracle_im,rel_error", [
        range(1, n_cmp + 1), spec.real, spec.imag, orac.real, orac.imag, rel,
    ])
    return {"errors": {"max_rel_error": float(rel.max()), "modes_compared": n_cmp},
            "timings": {"oracle_s": oracle_s}}


def _run_sweep(cfg, basis, params, mu):
    # one data draw and one noise draw, shared by every sweep point, so the
    # error column isolates the dependence on Re r
    delta = _perturbed(mu, cfg.noise, cfg.seed + 1).values - mu.values
    noise_h2 = sobolev_norm(_result(delta, basis, "noise"), 2)
    mu_used = _result(mu.values + delta, basis, "perturbed data")
    r_re = sorted(cfg.sweep_re.tolist())
    min_abs, errs_h, errs_h1, amps, bounds = [], [], [], [], []
    for re in r_re:
        point = AveragingParams(complex(re, params.r.imag), params.T)
        # both inversions reuse the factors params keeps; delta / z would move the error bits
        diff = _result(recover_initial(mu_used, point).values
                       - recover_initial(mu, point).values, basis, "error")
        err_h1 = sobolev_norm(diff, 1)
        min_abs.append(zeta_factors(basis, point).min_abs)
        errs_h.append(sobolev_norm(diff, 0))
        errs_h1.append(err_h1)
        amps.append(err_h1 / noise_h2 if noise_h2 > 0 else 0.0)
        bounds.append(stability_bound(point))
    header = "r_re,min_abs_zeta,error_h,error_h1,noise_h2,amplification,stability_bound"
    _write_csv(cfg.out / "errors.csv", header,
               [r_re, min_abs, errs_h, errs_h1, [noise_h2] * len(r_re), amps, bounds])
    return {"errors": {
        "noise": cfg.noise,
        "noise_h2": noise_h2,
        "max_amplification": max(amps) if amps else 0.0,
        "monotone_error_h1": all(b <= a * (1 + 1e-12) for a, b in zip(errs_h1, errs_h1[1:])),
    }}


# command -> (handler, decay of the state it draws through _initial_state or
# None, the files it writes under cfg.out besides report.json, the path of the
# count that sizes its largest arrays); each handler is called with (cfg,
# basis, params, state) and returns the report.json sections it fills
_HANDLERS = {
    "forward": (_run_forward, 2.0, ("trajectory.csv", "trajectory.meta.json"), "trajectory_steps"),
    "average": (_run_average, 2.0, ("zeta.csv", "mu.json"), "basis.N"),
    "recover": (_run_recover, 3.0, ("trajectory.csv", "trajectory.meta.json", "zeta.csv", "xi.json"),
                "trajectory_steps"),
    "roundtrip": (_run_roundtrip, 2.0, ("zeta.csv", "errors.csv"), "basis.N"),
    "conditioning": (_run_conditioning, None, ("zeta.csv",), "basis.N"),
    "oracle-check": (_run_oracle_check, 2.0, ("errors.csv",), "oracle.M"),
    "sweep": (_run_sweep, 3.0, ("errors.csv",), "basis.N"),
}
COMMANDS = tuple(_HANDLERS)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # flag misuse is a config error: exit 1, not 2
        self.print_usage(sys.stderr)
        raise SystemExit(_diagnostic(InvalidArgumentError(message)))


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="schrodavg", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    for f in fields(ExperimentConfig):
        for flag in f.metadata["flags"]:  # every flag but --out is a number
            parser.add_argument(flag, type=None if flag == "--out" else _number,
                                help=f"overrides {f.metadata['path']} of the config")
    return parser


# what main reports; OSError: an --out that cannot be written, MemoryError: a count too large to allocate
_FAILURES = (SchrodavgError, OSError, MemoryError)
# error class -> diagnostic name and exit code, the first class that matches
_EXITS = ((IllPosedError, "ill-posed-parameters", 2), (DegenerateModeError, "degenerate-mode", 3),
          (NumericError, "numeric-error", 4), (_FAILURES, "config-error", 1))


def _diagnostic(exc: Exception) -> int:
    """Print the one stderr line {"error", "message"[, "modes"]} of exc; return its exit code."""
    kind, code = next((kind, code) for cls, kind, code in _EXITS if isinstance(exc, cls))
    payload = {"error": kind, "message": str(exc)}
    if isinstance(exc, DegenerateModeError):
        payload["modes"] = exc.modes
    print(json.dumps(payload), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # what is not finite is named by one JSON line below
            report = run(load_config(args.config, args), args.command)
        if args.command == "conditioning" and report["well_posed"] is False:
            # diagnostic runs still flag the ill-posed regime through the exit code
            raise IllPosedError("Re r = 0 (report written)")
    except _FAILURES as exc:
        return _diagnostic(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
