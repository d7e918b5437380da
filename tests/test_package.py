"""The package's public surface."""

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
