"""Command-line runner: pipelines, exit codes, file artifacts, determinism."""

import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import schrodavg
from schrodavg import (
    AveragingParams, InvalidArgumentError, ModeCoefficients, apply_time_average, load_coefficients,
    make_custom_basis, make_dirichlet_basis,
)
from schrodavg.cli import COMMANDS, ExperimentConfig, _gather, build_parser, load_config, main, run
from schrodavg.spectral import basis_from_json, basis_to_json

T_FULL_REVOLUTION = 2.0 / np.pi


def _env_with_src():
    """The environment with this package's source tree first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(schrodavg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestCommands:
    def test_forward_writes_trajectory(self, tmp_path):
        out = tmp_path / "fwd"
        assert main(["forward", "--out", str(out), "--N", "8"]) == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "k", "re", "im"]
        assert len(rows) == 33 * 8  # default 32 steps -> 33 samples
        meta = json.loads((out / "trajectory.meta.json").read_text())
        assert meta["N"] == 8
        report = json.loads((out / "report.json").read_text())
        assert report["norms"]["sup_h1"] == pytest.approx(report["norms"]["xi_h1"], rel=1e-12)

    def test_average_emits_data_and_factors(self, tmp_path):
        out = tmp_path / "avg"
        assert main(["average", "--out", str(out), "--N", "6"]) == 0
        header, rows = read_csv(out / "zeta.csv")
        assert header == ["k", "lambda", "zeta_re", "zeta_im", "abs_zeta"]
        assert len(rows) == 6
        mu = load_coefficients(out / "mu.json")
        assert mu.basis.mode_count == 6

    def test_roundtrip_error_at_machine_level(self, tmp_path):
        out = tmp_path / "rt"
        assert main(["roundtrip", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["errors"]["roundtrip_rel_h"] <= 1e-12
        header, rows = read_csv(out / "errors.csv")
        assert header == ["k", "abs_error", "rel_error"]
        assert len(rows) == 64

    def test_recover_reports_conditioning(self, tmp_path):
        out = tmp_path / "rec"
        assert main(["recover", "--out", str(out), "--N", "12", "--noise", "1e-8"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["well_posed"] is True
        assert report["conditioning"]["stability_bound"] == pytest.approx(
            2.0 / (np.e - 1.0), rel=1e-12
        )
        xi = load_coefficients(out / "xi.json")
        assert xi.basis.mode_count == 12

    def test_oracle_check_small_error(self, tmp_path):
        out = tmp_path / "oc"
        assert main(["oracle-check", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["errors"]["max_rel_error"] < 5e-2
        header, rows = read_csv(out / "errors.csv")
        assert header == ["k", "spectral_re", "spectral_im", "oracle_re", "oracle_im", "rel_error"]

    def test_sweep_error_column_monotone(self, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--out", str(out), "--noise", "1e-6"]) == 0
        header, rows = read_csv(out / "errors.csv")
        assert header == [
            "r_re", "min_abs_zeta", "error_h", "error_h1", "noise_h2",
            "amplification", "stability_bound",
        ]
        err = [float(r[3]) for r in rows]
        assert all(b <= a for a, b in zip(err, err[1:]))
        report = json.loads((out / "report.json").read_text())
        assert report["errors"]["monotone_error_h1"] is True

    def test_sweep_evaluates_factors_once_per_point(self, tmp_path, zeta_calls):
        assert main(["sweep", "--out", str(tmp_path / "sw"), "--noise", "1e-6", "--N", "16"]) == 0
        assert len(zeta_calls) == 5  # the five default Re r points

    @pytest.mark.parametrize("command", ["average", "recover", "roundtrip", "conditioning"])
    def test_command_evaluates_factors_once(self, tmp_path, zeta_calls, command):
        assert main([command, "--out", str(tmp_path / "x"), "--N", "16", "--noise", "1e-6"]) == 0
        assert len(zeta_calls) == 1

    def test_sweep_noise_bytes_pinned(self, tmp_path):
        # sha256 of errors.csv recorded when each point inverted mu and
        # mu + delta separately; dividing delta by zeta moves these bits
        # (the golden digests run without noise)
        out = tmp_path / "sw"
        assert main(["sweep", "--out", str(out), "--noise", "1e-3", "--N", "64", "--seed", "3",
                     "--r-im", "0.7"]) == 0
        assert hashlib.sha256((out / "errors.csv").read_bytes()).hexdigest() == (
            "da7e9c56d1d41d0d1d38fc2a1b204bf846082c7122b1315a4cece1c10ebf415b")


class TestExitCodes:
    def test_conditioning_flags_ill_posed_after_writing(self, tmp_path, capsys):
        out = tmp_path / "cond"
        rc = main([
            "conditioning", "--out", str(out),
            "--r-re", "0", "--T", str(T_FULL_REVOLUTION),
        ])
        assert rc == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "ill-posed-parameters"
        header, rows = read_csv(out / "zeta.csv")
        assert header == ["k", "lambda", "abs_zeta", "inv_zeta_bound", "psi"]
        report = json.loads((out / "report.json").read_text())
        assert report["well_posed"] is False
        assert report["conditioning"]["min_abs_zeta"] <= 1e-14
        assert report["conditioning"]["stability_bound"] is None

    @pytest.mark.filterwarnings("error")
    def test_conditioning_at_r_zero_writes_the_limit(self, tmp_path, capsys):
        # mode 1 of the periodic basis has lambda = 0, so s_1 = r = 0 and
        # zeta_1 = T: its quotients are 0/0, written as their limit 1/T
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"basis": {"kind": "periodic_interval", "N": 4}, "r": [0, 0]}))
        out = tmp_path / "cond"
        assert main(["conditioning", "--config", str(cfg), "--out", str(out)]) == 2
        assert "warning" not in capsys.readouterr().err.lower()
        header, rows = read_csv(out / "zeta.csv")
        assert rows[0] == ["1", "0", "1", "1", "1"]
        assert all(row[3:] == ["inf", "inf"] for row in rows[1:])

    def test_overflowing_weight_writes_strict_json(self, tmp_path):
        # exp(800) overflows, so min |zeta| is NaN; report.json must still be
        # standard JSON, which has no NaN or Infinity token
        out = tmp_path / "ovf"
        assert main(["conditioning", "--out", str(out), "--r-re", "800", "--N", "8"]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["conditioning"]["min_abs_zeta"] is None
        assert report["conditioning"]["stability_bound"] == 0.0

    def test_degenerate_recovery_exits_three(self, tmp_path, capsys):
        rc = main([
            "recover", "--out", str(tmp_path / "deg"),
            "--r-re", "0", "--T", str(T_FULL_REVOLUTION), "--N", "5",
        ])
        assert rc == 3
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "degenerate-mode"
        assert diag["modes"] == [1, 2, 3, 4, 5]

    def test_imaginary_weight_recovery_exits_two(self, tmp_path, capsys):
        rc = main([
            "recover", "--out", str(tmp_path / "ip"),
            "--r-re", "0", "--r-im", "1.0", "--N", "4",
        ])
        assert rc == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "ill-posed-parameters"

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["forward", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 1
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "config-error"

    def test_invalid_mode_count_exits_one(self, tmp_path, capsys):
        assert main(["forward", "--out", str(tmp_path / "x"), "--N", "0"]) == 1
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "config-error"

    def test_overflowing_preset_names_L_and_N(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"basis": {"L": 1e-160}}')
        assert main(["conditioning", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "config-error",
            "message": "L = 1e-160 with N = 64 overflows the largest dirichlet_interval eigenvalue",
        }

    def test_overflowing_norm_exits_four(self, tmp_path):
        # lambda^2 = 1e600 overflows the order-2 weight of mu_h2: one
        # numeric-error line on stderr, without numpy's overflow warning
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"basis": {"kind": "custom", "lambdas": [1.0, 4.0, 1e300]}}))
        proc = subprocess.run(
            [sys.executable, "-m", "schrodavg.cli", "average", "--config", str(cfg_path),
             "--out", str(tmp_path / "x")],
            capture_output=True, text=True, env=_env_with_src(),
        )
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "numeric-error"

    def test_underflowing_weight_exits_four(self, tmp_path, capsys):
        # lambda^2 = 1e-400 underflows the order-2 weight of mu_h2 at c_A = 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"basis": {"kind": "custom", "lambdas": [1e-200, 1.0], "cA": 0.0}}))
        assert main(["average", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 4
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "numeric-error"
        assert "order-2 weight of mode 1 underflows" in diag["message"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_trajectory_exits_four(self, tmp_path, capsys):
        # lambda t = 1e310 overflows the phases of the forward trajectory
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"basis": {"kind": "custom", "lambdas": [1, 1e300, 1e300, 1e300]},
                                        "T": 1e10}))
        assert main(["forward", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 4
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "numeric-error"
        assert "overflows" in diag["message"]

    # exp(800) overflows, so every factor is NaN; 1e308 / |zeta_1| overflows
    @pytest.mark.parametrize("argv, stage", [
        (["average", "--r-re", "800"], "time average"),
        (["recover", "--r-re", "800"], "recovered state"),
        (["roundtrip", "--r-re", "800"], "time average"),
        (["recover", "--noise", "1e308"], "recovered state"),
    ], ids=["average", "recover", "roundtrip", "recover-noise"])
    def test_overflowing_result_exits_four(self, tmp_path, capsys, argv, stage):
        assert main([*argv, "--N", "8", "--out", str(tmp_path / "x")]) == 4
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag == {"error": "numeric-error", "message": f"{stage} overflows: mode 1 is not finite"}

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["forward", "--frobnicate"])
        assert info.value.code == 1
        assert "--frobnicate" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "schrodavg.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "{" + ",".join(COMMANDS) + "}" in proc.stdout
        # every flag is listed once, under the options of the one parser
        listed = [line.split()[0] for line in proc.stdout.splitlines() if line.startswith("  --")]
        flags = ["--config"] + [flag for f in fields(ExperimentConfig) for flag in f.metadata["flags"]]
        assert sorted(listed) == sorted(flags)


class TestConfigFile:
    def test_config_values_and_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "basis": {"kind": "dirichlet_interval", "L": 1.0, "N": 16, "cA": 0.0},
            "r": [0.5, -1.0],
            "T": 2.0,
            "seed": 99,
            "noise": 0.0,
        }))
        cfg = load_config(cfg_path)
        assert cfg.N == 16 and cfg.r == complex(0.5, -1.0) and cfg.T == 2.0
        out = tmp_path / "run"
        assert main(["roundtrip", "--config", str(cfg_path), "--out", str(out),
                     "--N", "8"]) == 0
        _, rows = read_csv(out / "errors.csv")
        assert len(rows) == 8  # flag override beats the file

    def test_explicit_coefficients(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "basis": {"kind": "dirichlet_interval", "L": 1.0, "N": 2, "cA": 0.0},
            "coeffs": [[1.0, 0.0], [0.0, -0.5]],
        }))
        out = tmp_path / "run"
        assert main(["forward", "--config", str(cfg_path), "--out", str(out)]) == 0
        _, rows = read_csv(out / "trajectory.csv")
        first = complex(float(rows[0][2]), float(rows[0][3]))
        assert first == 1.0 + 0.0j

    def test_custom_basis_from_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "basis": {"kind": "custom", "L": 1.0, "N": 3, "lambdas": [-2.0, 0.5, 3.0]},
        }))
        out = tmp_path / "run"
        assert main(["roundtrip", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["errors"]["roundtrip_rel_h"] <= 1e-12

    @pytest.mark.parametrize("flags", [[], ["--N", "3"]])
    def test_custom_basis_needs_no_N(self, tmp_path, flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"basis": {"kind": "custom", "lambdas": [-2.0, 0.5, 3.0]}}))
        out = tmp_path / "run"
        assert main(["forward", "--config", str(cfg_path), "--out", str(out), *flags]) == 0
        assert json.loads((out / "trajectory.meta.json").read_text())["N"] == 3

    @pytest.mark.parametrize("config, flags", [
        ({"basis": [1]}, []),  # not an object
        ({"oracle": 5}, []),
        ({"basis": {"N": 3.7}}, []),  # not integral: refused, as --N 3.7 is
        ({"seed": 3.7}, []),
        ({"seed": float("inf")}, []),
        ({"oracle": {"M": 256.5}}, []),
        ({"oracle": {"modes": 2.5}}, []),
        ({"trajectory_steps": 3.7}, []),
        ({"basis": {"kind": "custom", "N": 7, "lambdas": [-2.0, 0.5, 3.0]}}, []),  # N != 3
        ({"basis": {"kind": "custom", "lambdas": [-2.0, 0.5, 3.0]}}, ["--N", "7"]),
        ({"seed": -1}, []),  # numpy's generators take no negative seed
        ({}, ["--seed", "-1"]),
    ])
    def test_refused_as_config_error(self, tmp_path, capsys, config, flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["forward", "--config", str(cfg_path), "--out", str(tmp_path / "x"),
                     *flags]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "config-error"

    @pytest.mark.parametrize("basis", [{}, {"kind": "periodic_interval"}], ids=["dirichlet", "periodic"])
    def test_lambdas_refused_without_the_custom_kind(self, tmp_path, capsys, basis):
        # read and then ignored, they would give a run of 64 preset modes
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"basis": {**basis, "lambdas": [1.0, 2.0, 3.0]}}))
        out = tmp_path / "x"
        assert main(["conditioning", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        diag = json.loads(err[0])
        assert diag["error"] == "config-error" and "lambdas" in diag["message"]
        assert not (out / "zeta.csv").exists()
        with pytest.raises(InvalidArgumentError, match="lambdas"):
            run(ExperimentConfig(kind=basis.get("kind", "dirichlet_interval"), lambdas=[1.0, 2.0, 3.0],
                                 out=tmp_path / "y"), "conditioning")

    def test_oracle_check_compares_given_coefficients(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"basis": {"N": 2}, "coeffs": [[5, 0], [0, 7]]}))
        out = tmp_path / "oc"
        assert main(["oracle-check", "--config", str(cfg_path), "--out", str(out)]) == 0
        _, rows = read_csv(out / "errors.csv")
        spectral = [complex(float(row[1]), float(row[2])) for row in rows]
        params = AveragingParams(1.0, 1.0)
        want = apply_time_average(ModeCoefficients([5.0, 7.0j], make_dirichlet_basis(1.0, 2)), params)
        assert spectral == list(want.values)

    def test_oracle_check_zero_mode_gives_absolute_error(self, tmp_path):
        # a zero spectral reference divides nothing: report.json stays standard JSON
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"basis": {"N": 2}, "coeffs": [[0, 0], [1, 0]]}))
        out = tmp_path / "oc"
        assert main(["oracle-check", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = strict_json((out / "report.json").read_text())
        _, rows = read_csv(out / "errors.csv")
        spec_re, spec_im, orac_re, orac_im, rel = (float(x) for x in rows[0][1:])
        assert (spec_re, spec_im) == (0.0, 0.0)
        assert rel == np.abs(complex(orac_re, orac_im))
        assert report["errors"]["max_rel_error"] == max(float(row[-1]) for row in rows)

    def test_oracle_check_coefficients_must_match_compared_modes(self, tmp_path, capsys):
        # the default oracle.modes = 2 compares two modes, not three
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"basis": {"N": 3}, "coeffs": [[1, 0], [0, 1], [1, 1]]}))
        assert main(["oracle-check", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "config-error"
        assert diag["message"] == "coeffs holds 3 modes; oracle-check compares 2 (oracle.modes)"

    def test_decay_must_exceed_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"decay": 1.0}))
        assert main(["forward", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x")]) == 1
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "config-error"


class TestDeterminism:
    def test_identical_configs_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["sweep", "--out", str(out), "--noise", "1e-6",
                         "--seed", "7"]) == 0
        assert (a / "errors.csv").read_bytes() == (b / "errors.csv").read_bytes()
        for out in (a, b):
            assert main(["roundtrip", "--out", str(out), "--seed", "7"]) == 0
        assert (a / "errors.csv").read_bytes() == (b / "errors.csv").read_bytes()
        assert (a / "zeta.csv").read_bytes() == (b / "zeta.csv").read_bytes()

    def test_programmatic_run_returns_report(self, tmp_path):
        cfg = ExperimentConfig(N=8, out=tmp_path / "prog")
        report = run(cfg, "roundtrip")
        assert report["command"] == "roundtrip"
        assert report["errors"]["roundtrip_rel_h"] <= 1e-12
        assert report["timings"]["total_s"] > 0

    def test_programmatic_run_refuses_an_unknown_command(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="unknown command 'nope'"):
            run(ExperimentConfig(N=8, out=tmp_path / "prog"), "nope")
        assert not (tmp_path / "prog").exists()


REPORT_KEYS = ["command", "well_posed", "norms", "errors", "conditioning", "timings", "outputs"]


@pytest.mark.parametrize("command, flags, code", [(c, [], 0) for c in COMMANDS]
                         + [("conditioning", ["--r-re", "0"], 2)], ids=[*COMMANDS, "conditioning-r0"])
def test_report_has_the_fixed_sections_in_order(tmp_path, capsys, command, flags, code):
    # cli.run builds every report from the sections its handler returns: the
    # seven keys in this order whatever the command, total_s last of timings,
    # and the files the command wrote before report.json
    out = tmp_path / "run"
    assert main([command, "--N", "8", "--out", str(out), *flags]) == code
    report = strict_json((out / "report.json").read_text())
    assert list(report) == REPORT_KEYS
    assert report["command"] == command
    assert list(report["timings"])[-1] == "total_s"
    assert sorted(Path(f).name for f in report["outputs"]) == sorted(
        f.name for f in out.iterdir() if f.name != "report.json")


class TestImportCost:
    def test_scipy_loads_only_for_the_oracle(self, tmp_path):
        # scipy.integrate and the scipy.linalg package cost most of a command's
        # start-up; only the oracle needs scipy, and it loads its LAPACK module
        # alone.  The pytest process already holds scipy.linalg (conftest
        # imports scipy.integrate), so the fresh load is seen only in a fresh
        # interpreter
        code = (
            "import json, sys\n"
            "import schrodavg.cli\n"
            "before = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "schrodavg.cli.main(['oracle-check', '--N', '4096', '--seed', '7', '--out', sys.argv[1]])\n"
            "names = ('scipy.linalg._flapack', 'scipy.linalg', 'scipy.integrate')\n"
            "print(json.dumps([before, [m for m in names if m in sys.modules]]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                              text=True, env=_env_with_src())
        assert proc.returncode == 0, proc.stderr
        before, after = json.loads(proc.stdout)
        assert before == []
        assert after == ["scipy.linalg._flapack"]
        digest = hashlib.sha256((tmp_path / "errors.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[("oracle-check", "errors.csv")]

    def test_either_load_order_shares_one_lapack_module(self):
        # the oracle's LAPACK module and scipy.linalg's are one module, whichever
        # loads first, so both hold the same routines and the oracle's bits
        # do not depend on what else the process imported
        oracle_first = (
            "import hashlib, json, sys\n"
            "import numpy as np\n"
            "from schrodavg import AveragingParams, FdConfig, GridState, oracle_time_average\n"
            "from schrodavg.fd_oracle import _lapack\n"
            "args = (GridState(np.sin(np.arange(1.0, 65.0) / 8)), AveragingParams(0.7 - 0.3j, 0.2),\n"
            "        FdConfig(64, 1e-3))\n"
            "first = oracle_time_average(*args).values\n"
            "alone = 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg.lapack\n"
            "ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])\n"
            "solved = scipy.linalg.solve_banded((1, 1), ab, np.array([5.0, 6.0, 5.0]))\n"
            "print(json.dumps({'alone': alone,\n"
            "                  'same zgttrs': scipy.linalg.lapack.zgttrs is _lapack().zgttrs,\n"
            "                  'solve_banded': bool(np.allclose(solved, 1.0)),\n"
            "                  'same bits': bool(np.array_equal(oracle_time_average(*args).values, first)),\n"
            "                  'digest': hashlib.sha256(first.tobytes()).hexdigest()}))\n"
        )
        linalg_first = (
            "import hashlib, json, sys\n"
            "import numpy as np\n"
            "import importlib.machinery\n"
            "import scipy.linalg.lapack\n"
            "from schrodavg import AveragingParams, FdConfig, GridState, oracle_time_average\n"
            "from schrodavg.fd_oracle import _lapack\n"
            "looked = []\n"  # what the helper searches for once scipy.linalg is loaded
            "find_spec = importlib.machinery.PathFinder.find_spec\n"
            "importlib.machinery.PathFinder.find_spec = staticmethod(\n"
            "    lambda name, *rest: looked.append(name) or find_spec(name, *rest))\n"
            "first = oracle_time_average(GridState(np.sin(np.arange(1.0, 65.0) / 8)),\n"
            "                            AveragingParams(0.7 - 0.3j, 0.2), FdConfig(64, 1e-3)).values\n"
            "print(json.dumps({'reused': _lapack() is sys.modules['scipy.linalg._flapack']\n"
            "                            and 'scipy.linalg._flapack' not in looked,\n"
            "                  'same zgttrs': scipy.linalg.lapack.zgttrs is _lapack().zgttrs,\n"
            "                  'digest': hashlib.sha256(first.tobytes()).hexdigest()}))\n"
        )
        got = []
        for code in (oracle_first, linalg_first):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=_env_with_src())
            assert proc.returncode == 0, proc.stderr
            got.append(json.loads(proc.stdout))
        digests = [checks.pop("digest") for checks in got]
        assert got == [dict.fromkeys(["alone", "same zgttrs", "solve_banded", "same bits"], True),
                       dict.fromkeys(["reused", "same zgttrs"], True)]
        assert digests[0] == digests[1]

    def test_thread_pool_loads_only_for_large_rows(self):
        # concurrent.futures costs start-up; only a trajectory whose rows are
        # large enough to run on threads imports it
        code = (
            "import sys\n"
            "import schrodavg.cli\n"
            "from schrodavg import ModeCoefficients, make_dirichlet_basis, sample_trajectory\n"
            "from schrodavg import trajectory_sup_norm\n"
            "b = make_dirichlet_basis(1.0, 64)\n"
            "trajectory_sup_norm(sample_trajectory(ModeCoefficients([1.0] * 64, b), 1.0, 32), 1)\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_env_with_src())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


# sha256 of every output file except report.json (it holds timings) for
# `<command> --N 4096 --seed 7`, recorded before scipy was taken off the
# import path and the oracle's matrix was factored once; both changes, the
# move of every CSV writer onto one block writer, and the oracle's LAPACK
# routines loaded without the scipy.linalg package, must leave every byte
# as it was (TestImportCost checks the oracle-check digest in a fresh
# interpreter, where the oracle loads its LAPACK module itself)
GOLDEN_SHA256 = {
    ("forward", "trajectory.csv"): "04e5ab18e7224ddbbae2e069f85c2387db70c8a95b5f618c93391618bc4378f2",
    ("forward", "trajectory.meta.json"): "76c529dff06ef6b5aab2a70ecb45b660ef158dbf4a4d91c0d15a4e1dfa095bb4",
    ("average", "mu.json"): "ace6dea77064bf8f67dff03df42959e6c58588cad45b1f7fd5ecc86281281e77",
    ("average", "zeta.csv"): "dec25ba6092546e1605f08b73975b64be246813f512ded7fe5cdbd3e6c6144ef",
    ("recover", "trajectory.csv"): "425546352fbd66d24febf3243ab348b56f53659f8b82036845d0de0a850f1c80",
    ("recover", "trajectory.meta.json"): "76c529dff06ef6b5aab2a70ecb45b660ef158dbf4a4d91c0d15a4e1dfa095bb4",
    ("recover", "xi.json"): "332d6ac8d7d8e481a90571f7bada0d55f704c5e142a71ad5f31a6c08e0fce047",
    ("recover", "zeta.csv"): "dec25ba6092546e1605f08b73975b64be246813f512ded7fe5cdbd3e6c6144ef",
    ("roundtrip", "errors.csv"): "a75cece9fd783e285d6288a0e7771625ea7015d1807bbadd989695087947e62b",
    ("roundtrip", "zeta.csv"): "dec25ba6092546e1605f08b73975b64be246813f512ded7fe5cdbd3e6c6144ef",
    ("conditioning", "zeta.csv"): "89145e87cd422b625989d03c800dcece341f4b2768117031d0f67ae657c0aaf4",
    ("oracle-check", "errors.csv"): "699db74c7298ad55ebba3365884133b04b17a05fbf943a29c299f2008e6f097b",
    ("sweep", "errors.csv"): "0c79c12ed9edc60715e324f5f732ebb50cf0a8f89ca76e40fca555b1f404808a",
}

# the same for `<command> --config <PERIODIC_CONFIG> --seed 7`, recorded
# before the CSV writers were merged: it adds the lambda = 0 row, complex
# zeta (Im r != 0) and a periodic trajectory.meta.json; oracle-check is
# Dirichlet-only and exits 1
PERIODIC_CONFIG = {"basis": {"kind": "periodic_interval", "L": 1.0, "N": 512},
                   "r": [0.5, 0.7], "T": 0.8}
PERIODIC_SHA256 = {
    ("forward", "trajectory.csv"): "3c6f73f2e17a8549bb9295892a42df00d8e2bee685dc15301352b7c9c86dee3f",
    ("forward", "trajectory.meta.json"): "aa3087ea04a5f6a7c69fa1bbaaeb35344fcdcc583002c3b0da900a09bfb8b714",
    ("average", "mu.json"): "dd694282e8a32e861383d5df100cc6fafac1bc407e78f633d0babd43667593db",
    ("average", "zeta.csv"): "c129e185ec7e2c930e3dca853cfa630051f675b6914aa787165bf3847c7874dc",
    ("recover", "trajectory.csv"): "284687de7aa5f2b07f9a26b9ae635c37f615fd91136c9c0ac6cbb365eca29a2a",
    ("recover", "trajectory.meta.json"): "aa3087ea04a5f6a7c69fa1bbaaeb35344fcdcc583002c3b0da900a09bfb8b714",
    ("recover", "xi.json"): "eacc3fdbb97ea0b35b631ecf30bfc36cec1b1ec2c43fd308a0aebf2f57034dfb",
    ("recover", "zeta.csv"): "c129e185ec7e2c930e3dca853cfa630051f675b6914aa787165bf3847c7874dc",
    ("roundtrip", "errors.csv"): "16cf93642b30266a903a0892b87a5389f7140bfcfd1b9315a36ee02a9d65e128",
    ("roundtrip", "zeta.csv"): "c129e185ec7e2c930e3dca853cfa630051f675b6914aa787165bf3847c7874dc",
    ("conditioning", "zeta.csv"): "c8eadf2f04b4d2c46d872ed60091d3e6596eccaa7c39c36e736f745aaf030608",
    ("sweep", "errors.csv"): "b9c5709ed4eafa45699db38babfa61c38cca487d77e77e24055e56f408a42aa4",
}


# the same for `<command> --config <CUSTOM_CONFIG> --seed 7`, recorded before
# the basis JSON was given one encoder: it pins where "lambdas" sits in
# mu.json, xi.json and trajectory.meta.json, on negative and sub-unit
# eigenvalues, complex zeta and a config that gives no N
CUSTOM_CONFIG = {"basis": {"kind": "custom", "L": 1.0,
                           "lambdas": [-2.0, -0.5, 0.25, 0.75, 1.0, 3.5, 9.0, 20.0, 47.5,
                                       120.0, 300.0, 1000.0]},
                 "r": [0.3, -0.8], "T": 1.5}
CUSTOM_SHA256 = {
    ("forward", "trajectory.csv"): "b2288b5be3aa8b1f4e8f82436e6350e3a769f3ec8e285803c0233cc22847012e",
    ("forward", "trajectory.meta.json"): "16f67b21fc8a41f4a98b656d78bd7a24ab182ff2cc98f1f57cd51ae54b9a469d",
    ("average", "mu.json"): "c57b2f13e2b2ca6a87ea0fe2fa9d0bbce1d197e3c06d43eec82e8b17f0b848c5",
    ("average", "zeta.csv"): "a5a7d5918cd9a7ff07f9fda3a7376426ff0566a54fff2606835ef351b1796a4b",
    ("recover", "trajectory.csv"): "df25600b2c32a9825e6a2a4884cab37b7271fb24136bf7598191dbdae22c4502",
    ("recover", "trajectory.meta.json"): "16f67b21fc8a41f4a98b656d78bd7a24ab182ff2cc98f1f57cd51ae54b9a469d",
    ("recover", "xi.json"): "10641088613ac018da09ff307dabb340b73a6a6ed8962cae2c46a67b12d9dcd6",
    ("recover", "zeta.csv"): "a5a7d5918cd9a7ff07f9fda3a7376426ff0566a54fff2606835ef351b1796a4b",
    ("roundtrip", "errors.csv"): "0827ee21bcd8e5e1add8cc18119de5f249ead9ce1cf202c3a1c4ca5d26d02e4d",
    ("roundtrip", "zeta.csv"): "a5a7d5918cd9a7ff07f9fda3a7376426ff0566a54fff2606835ef351b1796a4b",
    ("conditioning", "zeta.csv"): "9c983a4ffc049b8d1386802a035f3cf3f60253590acea46298ac1e067d159ae1",
    ("sweep", "errors.csv"): "14095086b3da1f92d328cbc37b6eae216d014f001c3eb76564f6d7a493ff1aa7",
}


def strict_json(text):
    """json.loads, refusing the NaN and Infinity that standard JSON lacks."""
    def refuse(name):
        raise ValueError(f"{name} is not standard JSON")
    return json.loads(text, parse_constant=refuse)


def output_digests(tmp_path, commands, flags):
    """{(command, file name): sha256} of every output but report.json, which
    must parse as standard JSON."""
    got = {}
    for command in commands:
        out = tmp_path / command
        assert main([command, "--out", str(out), *flags]) == 0
        for f in out.iterdir():
            if f.name != "report.json":
                got[(command, f.name)] = hashlib.sha256(f.read_bytes()).hexdigest()
        strict_json((out / "report.json").read_text())
    return got


def assert_digests(got, want):
    # name the files, where a dict comparison prints a truncated diff
    changed = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not changed, f"digest changed, appeared or vanished for {changed}"


class TestGoldenBytes:
    def test_every_output_file_matches_recorded_digest(self, tmp_path):
        got = output_digests(tmp_path, COMMANDS, ["--N", "4096", "--seed", "7"])
        assert_digests(got, GOLDEN_SHA256)

    def test_periodic_complex_weight_outputs_match_recorded_digest(self, tmp_path):
        cfg = tmp_path / "periodic.json"
        cfg.write_text(json.dumps(PERIODIC_CONFIG))
        commands = [c for c in COMMANDS if c != "oracle-check"]
        got = output_digests(tmp_path, commands, ["--config", str(cfg), "--seed", "7"])
        assert_digests(got, PERIODIC_SHA256)

    def test_custom_basis_outputs_match_recorded_digest(self, tmp_path):
        cfg = tmp_path / "custom.json"
        cfg.write_text(json.dumps(CUSTOM_CONFIG))
        commands = [c for c in COMMANDS if c != "oracle-check"]
        got = output_digests(tmp_path, commands, ["--config", str(cfg), "--seed", "7"])
        assert_digests(got, CUSTOM_SHA256)

    def test_failure_names_the_changed_files(self):
        want = {("a", "x.csv"): "0", ("b", "y.csv"): "1"}
        with pytest.raises(AssertionError, match=r"\('b', 'y.csv'\)") as info:
            assert_digests({("a", "x.csv"): "0", ("b", "y.csv"): "2"}, want)
        assert "x.csv" not in str(info.value)


# config path -> values of that setting which its rule refuses, as JSON writes
# them.  Every row of the config table has an entry, and every numeric row a
# non-finite, an out-of-range and a string value, and a count a non-integral one.
REFUSED_SETTINGS = {
    "out": [5, ["out"]],
    "r": [[np.nan, 0.0], [0.0, np.inf], ["1", 0.0], "1", [1.0, 2.0, 3.0], [1.0]],
    "T": [np.inf, np.nan, 0.0, -1.0, "1"],
    "basis.N": [np.inf, np.nan, 0, 3.7, "8"],
    "seed": [np.inf, np.nan, -1, 3.7, "5"],
    "noise": [np.inf, np.nan, -1e-6, "0"],
    "basis.kind": ["neumann", "Dirichlet_interval", 5, None, ["custom"]],
    "basis.L": [np.inf, np.nan, 0.0, -1.0, "1"],
    "basis.cA": [np.inf, np.nan, -1e-6, "0"],
    "basis.lambdas": [[np.nan], [1.0, np.inf], [3.0, 1.0], [], "1", ["1"], [[1.0]]],
    "decay": [np.inf, np.nan, 1.0, 0.5, "3"],
    "coeffs": [[[np.nan, 0.0]], [[1.0, "0"]], "1", [1.0, 0.0], [[1.0, 0.0, 0.0]]],
    "oracle.M": [np.inf, np.nan, 2, 256.5, "256"],
    "oracle.dt": [np.inf, np.nan, 0.0, -1e-3, "0.001"],
    "oracle.modes": [np.inf, np.nan, 0, 2.5, "2"],
    "trajectory_steps": [np.inf, np.nan, 0, 3.7, "32"],
    "sweep_r_re": [[np.nan], [0.1, np.inf], "0.5", ["0.5"], [[0.5]]],
}
# flag -> texts that its row's rule refuses; --out takes any text as a path
REFUSED_FLAGS = {
    "--r-re": ["nan", "inf", "abc"],
    "--r-im": ["nan", "-inf", "abc"],
    "--T": ["inf", "nan", "0", "-1", "abc"],
    "--N": ["inf", "0", "3.7", "abc"],
    "--seed": ["nan", "-1", "3.7", "abc"],
    "--noise": ["inf", "nan", "-1e-6", "abc"],
}
ROWS = {f.metadata["path"]: f for f in fields(ExperimentConfig)}


def _nested(path, value):
    """The config object that sets ``path`` (dotted) to value."""
    *parents, key = path.split(".")
    obj = {key: value}
    for name in reversed(parents):
        obj = {name: obj}
    return obj


def _one_refusal(capsys, path):
    """stderr holds one config-error line, whose message names ``path`` first."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    diag = json.loads(err[0])
    assert diag["error"] == "config-error"
    assert diag["message"].startswith(f"{path} "), diag["message"]


class TestConfigRules:
    def test_every_row_has_a_rule_and_refused_values(self):
        # a new row without a rule, or without entries here, fails this test
        assert set(ROWS) == set(REFUSED_SETTINGS)
        assert all(callable(f.metadata["rule"]) for f in ROWS.values())
        flags = {flag for f in ROWS.values() for flag in f.metadata["flags"]}
        assert flags - {"--out"} == set(REFUSED_FLAGS)

    def test_no_row_path_is_a_section_of_another(self):
        # a row's value never holds other rows, as the basis object and its
        # basis.N once did: each value is read at one path, by one rule
        assert not [(p, q) for p in ROWS for q in ROWS if q.startswith(p + ".")]

    @pytest.mark.parametrize("section, value", [("basis", [1]), ("basis", 5), ("basis", "dirichlet_interval"),
                                                ("oracle", [16])], ids=repr)
    def test_non_object_section_refused(self, tmp_path, capsys, section, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({section: value}))
        assert main(["forward", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        _one_refusal(capsys, f"{section} must be a JSON object,")

    @pytest.mark.parametrize("path, value", [(p, v) for p, vs in REFUSED_SETTINGS.items() for v in vs], ids=repr)
    def test_refused_from_the_file(self, tmp_path, monkeypatch, capsys, path, value):
        monkeypatch.chdir(tmp_path)  # the default out, were "out" not refused
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_nested(path, value)))
        assert main(["forward", "--config", str(cfg_path)]) == 1
        _one_refusal(capsys, path)

    @pytest.mark.parametrize("flag, text", [(f, t) for f, ts in REFUSED_FLAGS.items() for t in ts], ids=repr)
    def test_refused_from_the_flag(self, tmp_path, capsys, flag, text):
        path = next(p for p, f in ROWS.items() if flag in f.metadata["flags"])
        assert main(["forward", "--out", str(tmp_path / "x"), f"{flag}={text}"]) == 1
        _one_refusal(capsys, path)

    @pytest.mark.parametrize("path, value", [(p, v) for p, vs in REFUSED_SETTINGS.items() for v in vs], ids=repr)
    def test_refused_when_built_by_hand(self, tmp_path, path, value):
        f = ROWS[path]
        try:  # the form Python code writes: a complex number for [re, im]
            value = f.metadata["decode"](value, path) if f.metadata["decode"] else value
        except InvalidArgumentError:
            pass
        with pytest.raises(InvalidArgumentError, match=rf"^{re.escape(path)} "):
            run(ExperimentConfig(**{"out": tmp_path / "x", f.name: value}), "forward")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("settings", [{"seed": -1}, {"noise": -1.0}, {"decay": 0.5}, {"r": complex(np.nan, 0)},
                                          {"trajectory_steps": 0}, {"sweep_re": [np.nan]}], ids=repr)
    def test_hand_built_config_is_checked(self, tmp_path, settings):
        with pytest.raises(InvalidArgumentError):
            run(ExperimentConfig(out=tmp_path / "x", **settings), "forward")

    def test_json_literal_beyond_the_doubles_is_refused(self, tmp_path, capsys):
        # 1e400 parses to inf, and 10**400 to an int that no double holds
        for text in ('{"decay": 1e400}', '{"T": 1' + "0" * 400 + "}"):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(text)
            assert main(["forward", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
            _one_refusal(capsys, text[2:].split('"')[0])

    def test_oracle_modes_are_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"oracle": {"modes": 0}}))
        assert main(["oracle-check", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        _one_refusal(capsys, "oracle.modes")

    def test_integer_seed_flag_is_exact(self, tmp_path):
        seed = 2**70 + 1  # a float would read 2**70
        args = build_parser().parse_args(["forward", "--seed", str(seed)])
        assert load_config(None, args).seed == seed
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["forward", "--N", "4", "--seed", str(seed), "--out", str(a)]) == 0
        run(ExperimentConfig(N=4, seed=seed, out=b), "forward")
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()

    def test_integral_flag_counts(self, tmp_path):
        out = tmp_path / "run"
        assert main(["roundtrip", "--N", "8.0", "--out", str(out)]) == 0
        _, rows = read_csv(out / "errors.csv")
        assert len(rows) == 8

    def test_empty_sweep_runs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep_r_re": []}))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "errors.csv").read_text().count("\n") == 1  # the header alone

    def test_flag_part_of_r_keeps_the_other_part(self):
        args = build_parser().parse_args(["forward", "--r-re", "0.5"])
        assert load_config(None, args).r == complex(0.5, 0.0)
        args = build_parser().parse_args(["forward", "--r-im", "-2", "--r-re", "3"])
        assert load_config(None, args).r == complex(3.0, -2.0)
        # one parser: flags may come before the command too
        args = build_parser().parse_args(["--r-im", "-2", "--N", "8", "forward", "--r-re", "3"])
        cfg = load_config(None, args)
        assert (args.command, cfg.r, cfg.N) == ("forward", complex(3.0, -2.0), 8)

    # a JSON true or false is not a number: alone, as a vector, or in a list
    # beside numbers, where numpy would read it as an integer
    BOOLEANS = [("basis.N", True), ("T", True), ("seed", True), ("noise", False), ("decay", True),
                ("oracle.M", True), ("trajectory_steps", True), ("basis.L", True), ("basis.cA", False),
                ("basis.kind", True), ("basis.lambdas", [1.0, True]), ("r", [True, False]),
                ("coeffs", [[True, False]]), ("sweep_r_re", [True]), ("r", [True, 0]),
                ("coeffs", [[1.0, 0.0], [0.0, False]]), ("sweep_r_re", [0.5, True])]

    @pytest.mark.parametrize("path, value", BOOLEANS, ids=repr)
    def test_booleans_refused_from_the_file(self, tmp_path, capsys, path, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_nested(path, value)))
        assert main(["forward", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        _one_refusal(capsys, path)

    @pytest.mark.parametrize("path, value", [(p, v) for p, v in BOOLEANS if not isinstance(v, list)], ids=repr)
    def test_booleans_refused_when_built_by_hand(self, tmp_path, path, value):
        with pytest.raises(InvalidArgumentError, match=rf"^{re.escape(path)} "):
            ExperimentConfig(**{"out": tmp_path / "x", ROWS[path].name: value})

    def test_seed_beyond_the_doubles_is_refused(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"seed": 1' + "0" * 400 + "}")
        assert main(["forward", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        _one_refusal(capsys, "seed")

    # counts past 2^53, where every double is an integer and no array fits
    @pytest.mark.parametrize("command, path, value", [
        ("forward", "basis.N", 1e20), ("forward", "basis.N", 2**63), ("forward", "trajectory_steps", 1e20),
        ("oracle-check", "oracle.M", 1e20), ("oracle-check", "oracle.modes", 2**53 + 2),
        # the grid has oracle.M + 2 points, which must count too
        ("oracle-check", "oracle.M", 2**53), ("oracle-check", "oracle.M", 2**53 - 1),
    ], ids=repr)
    def test_counts_beyond_2_to_53_refused(self, tmp_path, capsys, command, path, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_nested(path, value)))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        _one_refusal(capsys, path)

    def test_boolean_eigenvalue_refused_from_the_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"basis": {"kind": "custom", "lambdas": [1.0, True, 3.0]}}))
        assert main(["conditioning", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        _one_refusal(capsys, "basis.lambdas")

    # each passes its rule, but sizes 64 PiB (labels, sample times, grid
    # points), which malloc refuses at once
    @pytest.mark.parametrize("command, path, value", [
        ("forward", "basis.N", 2**53), ("forward", "trajectory_steps", 2**53),
        ("oracle-check", "oracle.M", 2**53 - 2),
    ], ids=repr)
    def test_count_too_large_to_allocate_exits_one(self, tmp_path, capsys, command, path, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**_nested("basis.N", 4), **_nested(path, value)}))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        _one_refusal(capsys, f"{path} = {value} is too large to allocate:")
        with pytest.raises(InvalidArgumentError, match=rf"^{re.escape(path)} = {value} "):
            run(ExperimentConfig(**{"N": 4, ROWS[path].name: value, "out": tmp_path / "y"}), command)

    @pytest.mark.parametrize("config, message", [
        ({"nosie": 1}, "nosie (did you mean noise?)"),
        ({"oracle": {"m": 16}}, "oracle.m (did you mean oracle.M?)"),
        ({"basis": {"n": 8}}, "basis.n (did you mean basis.N?)"),
        ({"oracel": {"M": 16}}, "oracel (did you mean oracle?)"),
        ({"basis": {"kind": "custom", "lambda": [1.0]}}, "basis.lambda (did you mean basis.lambdas?)"),
        ({"zzz": 1}, "zzz"),
    ], ids=repr)
    def test_unknown_key_refused(self, tmp_path, capsys, config, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["conditioning", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in err] == [
            {"error": "config-error", "message": f"unknown config key {message}"}]
        assert not (tmp_path / "x").exists()

    def test_basis_keys_are_the_ones_the_codec_reads(self, tmp_path):
        # the basis.* rows are the keys that basis_from_json reads, which
        # reads no other, and a basis that basis_to_json writes reads back
        read = set(re.findall(r'obj\.get\("(\w+)"\)', inspect.getsource(basis_from_json)))
        assert {p for p in ROWS if p.startswith("basis.")} == {f"basis.{k}" for k in read}
        cfg_path = tmp_path / "cfg.json"
        for b in (make_dirichlet_basis(1.0, 3), make_custom_basis([1.0, 2.0])):
            cfg_path.write_text(json.dumps({"basis": basis_to_json(b)}))
            cfg = load_config(cfg_path)
            got = basis_from_json({k: getattr(cfg, ROWS[f"basis.{k}"].name) for k in read})
            assert basis_to_json(got) == basis_to_json(b)

    def test_readme_config_example_is_accepted(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("Config file (JSON; all keys optional):", 1)[1].split("```json\n", 1)[1]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(example.split("```", 1)[0])
        assert load_config(cfg_path).oracle_M == 256
        # the example sets every row but the custom basis's eigenvalues
        assert set(_gather(json.loads(cfg_path.read_text()), set(ROWS))) == set(ROWS) - {"basis.lambdas"}


class TestFileEdge:
    """The files at the CLI's edge: a config that cannot be read, an --out that
    cannot be made, and the mode count of a file against a hand-built config."""

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"T": 1.0}\xff')
        assert main(["forward", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        diag = json.loads(err[0])
        assert diag["error"] == "config-error"
        assert diag["message"].startswith(f"cannot read config {cfg_path}: ")

    def test_non_utf8_coefficients_refused(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff")
        with pytest.raises(InvalidArgumentError, match=rf"^cannot read coefficients {re.escape(str(path))}: "):
            load_coefficients(path)

    def test_json_nested_beyond_the_parser_is_refused(self, tmp_path, capsys):
        # valid JSON, but json.loads runs out of recursion depth on it
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["conditioning", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert json.loads(err[0])["message"].startswith(f"cannot read config {path}: ")
        with pytest.raises(InvalidArgumentError, match="^cannot read coefficients "):
            load_coefficients(path)

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-a-file"])
    def test_unusable_out_exits_one(self, tmp_path, capsys, sub):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert main(["conditioning", "--out", str(taken / sub)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        diag = json.loads(err[0])
        assert diag["error"] == "config-error"
        assert str(taken) in diag["message"]
        assert taken.read_text() == "not a directory\n"

    def test_hand_built_basis_counts_as_the_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"basis": {"N": 8}}))
        assert main(["conditioning", "--config", str(cfg_path), "--out", str(tmp_path / "file")]) == 0
        run(ExperimentConfig(N=8, out=tmp_path / "hand"), "conditioning")
        from_file = (tmp_path / "file" / "zeta.csv").read_bytes()
        assert (tmp_path / "hand" / "zeta.csv").read_bytes() == from_file
        assert from_file.count(b"\n") == 8 + 1

    def test_the_N_flag_beats_the_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"basis": {"N": 8}}))
        assert main(["conditioning", "--config", str(cfg_path), "--N", "5", "--out", str(tmp_path / "file")]) == 0
        _, rows = read_csv(tmp_path / "file" / "zeta.csv")
        assert len(rows) == 5

    def test_hand_built_custom_basis_has_one_mode_per_eigenvalue(self, tmp_path):
        run(ExperimentConfig(kind="custom", lambdas=[1.0, 2.0, 3.0], out=tmp_path / "x"), "conditioning")
        _, rows = read_csv(tmp_path / "x" / "zeta.csv")
        assert len(rows) == 3

    # a traceback or a numpy warning on any of these paths writes more than one stderr line
    @pytest.mark.parametrize("command, config, out, flags, code, kind", [
        ("conditioning", b"\xff", "x", [], 1, "config-error"),
        ("conditioning", b"{}", "taken", [], 1, "config-error"),
        ("roundtrip", b'{"coeffs": [[true, false]], "basis": {"N": 1}}', "x", [], 1, "config-error"),
        ("sweep", b'{"sweep_r_re": [true]}', "x", [], 1, "config-error"),
        ("forward", b"{}", "x", ["--N", "100000000000000000000"], 1, "config-error"),
        ("forward", b'{"trajectory_steps": 1e20}', "x", [], 1, "config-error"),
        ("oracle-check", b'{"oracle": {"M": 1e20}}', "x", [], 1, "config-error"),
        ("forward", b"{}", "x", ["--N", "9223372036854775808"], 1, "config-error"),
        # 64 PiB, which malloc refuses at once
        ("forward", b"{}", "x", ["--N", "9007199254740992"], 1, "config-error"),
        ("forward", b'{"trajectory_steps": 9007199254740992}', "x", ["--N", "4"], 1, "config-error"),
        ("oracle-check", b'{"oracle": {"M": 9007199254740990}}', "x", [], 1, "config-error"),
        ("roundtrip", b'{"nosie": 1}', "x", [], 1, "config-error"),
        ("conditioning", b'{"basis": {"n": 8}, "oracle": {"m": 16}}', "x", [], 1, "config-error"),
        ("conditioning", b'{"r": [true, 0]}', "x", [], 1, "config-error"),
        # exp(800) overflows, so every factor is NaN; 1e308 / |zeta_1| overflows
        ("average", b"{}", "x", ["--r-re", "800"], 4, "numeric-error"),
        ("recover", b"{}", "x", ["--r-re", "800"], 4, "numeric-error"),
        ("roundtrip", b"{}", "x", ["--r-re", "800"], 4, "numeric-error"),
        ("recover", b"{}", "x", ["--noise", "1e308"], 4, "numeric-error"),
    ], ids=["non-utf8-config", "file-as-out", "boolean-coeffs", "boolean-sweep", "N-1e20", "steps-1e20",
            "oracle-M-1e20", "N-2^63", "N-2^53", "steps-2^53", "oracle-M-2^53-2", "unknown-key",
            "unknown-nested-keys", "boolean-in-r", "average-overflow", "recover-overflow", "roundtrip-overflow",
            "recover-noise-overflow"])
    def test_module_failure_is_one_json_line(self, tmp_path, command, config, out, flags, code, kind):
        (tmp_path / "taken").write_text("")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(config)
        proc = subprocess.run(
            [sys.executable, "-m", "schrodavg.cli", command, "--config", str(cfg_path),
             "--out", str(tmp_path / out), *flags],
            capture_output=True, text=True, env=_env_with_src(),
        )
        assert proc.returncode == code
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == kind
