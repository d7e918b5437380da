"""The package's public surface."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import schrodavg

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves_once():
    names = schrodavg.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [n for n in names if not hasattr(schrodavg, n)]
    assert not missing, f"__all__ names not defined on the package: {missing}"


def test_readme_quick_start_runs():
    # the README's first example, run as written with warnings as errors, so
    # a renamed or removed export cannot leave it stale
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ)
    src = str(Path(schrodavg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, env=env)
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
