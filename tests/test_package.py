"""The package's public surface."""

import ast
import subprocess
import sys
from pathlib import Path

from conftest import env_with_src
import schrodavg

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves_once():
    names = schrodavg.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [n for n in names if not hasattr(schrodavg, n)]
    assert not missing, f"__all__ names not defined on the package: {missing}"
    # computing __all__ binds no name: a fresh import's public attributes are
    # the exports and the six submodules that __init__ imports
    code = "import schrodavg; print(' '.join(n for n in dir(schrodavg) if not n.startswith('_')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env_with_src())
    assert proc.returncode == 0, proc.stderr
    modules = ["averaging", "errors", "evolve", "fd_oracle", "recover", "spectral"]
    assert sorted(proc.stdout.split()) == sorted(names + modules)


def test_public_names_are_pinned():
    # an added or removed export is a test edit, and the surface stays within 44 names
    assert sorted(schrodavg.__all__) == [
        "AveragingParams", "CUSTOM", "ConditioningReport", "DIRICHLET", "DegenerateModeError",
        "FdConfig", "GridState", "IllPosedError", "InvalidArgumentError", "ModeCoefficients",
        "NumericError", "PERIODIC", "SchrodavgError", "SpectralBasis", "Trajectory", "ZetaFactors",
        "apply_time_average", "cn_step", "conditioning_report", "forward_smoothing_constant",
        "load_coefficients", "make_custom_basis", "make_dirichlet_basis", "make_periodic_basis",
        "oracle_mu_coeffs", "oracle_time_average", "potential_shift_solution", "project_from_grid",
        "propagate", "reconstruct_solution", "recover_initial", "recover_via_shift", "sample_trajectory",
        "save_coefficients", "sobolev_norm", "stability_bound", "synthesize_on_grid",
        "trajectory_sup_norm", "unit_floor_shift", "zeta_factor", "zeta_factors",
    ]


def test_readme_quick_start_runs():
    # the README's first example, run as written with warnings as errors, so
    # a renamed or removed export cannot leave it stale
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, env=env_with_src())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "(9, 64)"


def test_results_are_not_built_through_the_input_rule():
    # ModeCoefficients, GridState and Trajectory apply the input rule
    # (InvalidArgumentError); the package builds what it computes through
    # spectral._trusted and _result (NumericError) and calls the constructors
    # only where outside input enters
    calls = []
    for path in sorted(Path(schrodavg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) in ("ModeCoefficients", "GridState", "Trajectory"):
                where = node
                while not isinstance(where, (ast.FunctionDef, ast.Module)):
                    where = where.parent
                calls.append((path.stem, getattr(where, "name", None), ast.unparse(node)))
    assert sorted(calls) == [
        ("cli", "_initial_state", "ModeCoefficients(cfg.coeffs, basis)"),
        ("spectral", "load_coefficients", "ModeCoefficients(_complex_pairs(obj.get('coeffs'), 'coeffs'), basis)"),
    ]


def test_one_numpy_error_policy():
    # every np.errstate in the package ignores all four errors, around values
    # the package names right after (NumericError) or documents (a report's
    # inf, NaN or null), so no kernel, inline or on a worker thread, depends on
    # the caller's numpy error handling, and none reads or sets it
    policies, touched = [], []
    for path in sorted(Path(schrodavg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == "errstate":
                policies.append((path.stem, ast.unparse(node)))
            name = getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
            if name in ("geterr", "geterrcall", "seterr", "seterrcall"):
                touched.append((path.stem, getattr(node, "lineno", None), name))
    assert policies, "no np.errstate found: the scan reads nothing"
    assert {call for _, call in policies} == {"np.errstate(all='ignore')"}, policies
    assert not touched
