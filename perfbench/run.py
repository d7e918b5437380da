"""schrodavg benchmark: one workload per run, metrics as one JSON line.

Run from the root of a source tree (the program is taken from ``src/``):

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke          # every workload, briefly

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are notes (environment, tail percentile,
failures, decomposition).  Without ``src/schrodavg`` the run exits 2 and
prints no result.

This file uses the standard library only.  It pins BLAS/OpenMP threads to 1,
measures set-up as the median of three fresh interpreters (two set-up-only
workers, one before and one after the run, and the measuring worker), each
scaled for the host's speed by a reference launch next to it, and starts
the worker (worker.py), which in turn starts CLI children strictly one at a
time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli", "bulk", "sweep", "oracle")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
# A fresh interpreter that imports what every workload imports, but no
# schrodavg code.  The host's CPU runs in fast and slow states that last from
# milliseconds to minutes, and set-up slows with them: the median set-up time
# of ten runs moved by up to 33 % between two sets an hour apart on a 2-vCPU
# Xeon VM.  This launch slows alike (log-log slope 0.9-1.0 against the
# set-up-only workers of bulk and sweep), and scaling each set-up time by
# REF_LAUNCH_S over the launches next to it halved the spread of 3-sample
# medians (0.20 -> 0.08 on sweep, 0.30 -> 0.13 on bulk).  setup_s so reads
# in seconds at the speed where this launch takes REF_LAUNCH_S.
REF_LAUNCH = ("-c", "import numpy, scipy.linalg")
REF_LAUNCH_S = 0.5
DEADLINE_S = 170.0
WORKDIR = ".perfbench_run"


def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({v: "1" for v in THREAD_VARS})
    return env


class Worker:
    """A worker process; ``ready_s`` is the wall time from launch to READY."""

    def __init__(self, root: Path, args: list[str], timeout: float):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workdir", str(root / WORKDIR), *args]
        self.t0 = perf_counter()
        # its own process group, so a timeout also stops the CLI child it runs
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        self.timer = threading.Timer(max(1.0, timeout), self._kill)
        self.timer.start()
        self.ready_s = None
        self.ready = {}
        self.result = None
        self.notes: list[str] = []

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def finish(self) -> int:
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("READY ") and self.ready_s is None:
                self.ready_s = perf_counter() - self.t0
                self.ready = json.loads(line[6:])
            elif line.startswith("RESULT "):
                self.result = json.loads(line[7:])
            else:
                self.notes.append(line)
        rc = self.proc.wait()
        self.timer.cancel()
        return rc


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> int:
    if not (root / "src" / "schrodavg" / "__init__.py").is_file():
        print(f"perfbench: no src/schrodavg under {root}; run from the root of a schrodavg tree", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setup_s, modules = [], []

    def setup_probe() -> float:
        w = Worker(root, base + ["--setup-only"], deadline - perf_counter())
        if w.finish() != 0 or w.ready_s is None:
            raise RuntimeError(f"set-up of {workload} failed")
        modules.append(w.ready["schrodavg"])
        return w.ready_s

    def ref_launch() -> float:
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, *REF_LAUNCH],
            cwd=root,
            env=child_env(root),
            check=True,
            capture_output=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
        return perf_counter() - t0

    # set-up samples, each (time to READY, reference launch time next to it):
    # a set-up-only worker before the measured run, the measuring worker and a
    # set-up-only worker after the run, so the median spans the run's changes
    # in machine speed.  Each set-up-only worker lies between two reference
    # launches; the measuring worker follows the second launch of the first pair.
    try:
        setup_probe()  # fills the bytecode and file caches; not timed
        if not trace:
            r0, s0, r1 = ref_launch(), setup_probe(), ref_launch()
            setup_s.append((s0, (r0 + r1) / 2))
        w = Worker(root, base + ["--seconds", str(seconds), "--trace", str(trace)], deadline - perf_counter())
        rc = w.finish()
        if not trace and rc == 0 and w.result is not None:
            setup_s.append((w.ready_s, r1))
            r2, s2, r3 = ref_launch(), setup_probe(), ref_launch()
            setup_s.append((s2, (r2 + r3) / 2))
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root / WORKDIR, ignore_errors=True)
    for note in w.notes:
        print(note)
    if rc != 0 or w.result is None:
        print(f"perfbench: worker for {workload} exited {rc} without a result", file=sys.stderr)
        return 1
    modules.append(w.ready["schrodavg"])
    src = (root / "src" / "schrodavg").resolve()
    tree_ok = all(Path(m).resolve().parent == src for m in modules)
    print(f"schrodavg: {modules[-1]} ({'the tree under test' if tree_ok else 'NOT the tree under test'})")
    print("env: " + json.dumps(w.result["env"]))
    metrics = w.result["metrics"]
    if not trace:
        print("setup_s samples (s to READY / s of the reference launch): " + ", ".join(f"{s:.4f}/{r:.4f}" for s, r in setup_s))
        metrics["setup_s"] = {"value": statistics.median(s * REF_LAUNCH_S / r for s, r in setup_s), "unit": "s"}
    print(
        json.dumps(
            {
                "correct": tree_ok and w.result["failed"] == 0,
                "attempted": w.result["attempted"],
                "failed": w.result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def smoke(root: Path, seconds: float) -> int:
    """Every workload, untraced and traced: all declared metrics present,
    nothing failed, and the children ran the tree under test."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    src = str((root / "src" / "schrodavg").resolve())
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1"]
            proc = subprocess.run(
                cmd + ["--seconds", str(seconds), "--trace", str(trace)],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            problems = []
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
                problems.append(f"no result (exit {proc.returncode}): {proc.stderr[-500:]}")
            if result:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if result.get("failed") != 0 or result.get("correct") is not True:
                    problems.append(f"failed={result.get('failed')} correct={result.get('correct')}")
                names = set(result.get("metrics", {}))
                if names != declared[trace]:
                    problems.append(f"missing {sorted(declared[trace] - names)} extra {sorted(names - declared[trace])}")
                if not any(line.startswith("schrodavg: " + src) for line in lines):
                    problems.append("children did not import the tree under test")
            ok = ok and not problems
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}")
            for line in lines:
                if "MISMATCH" in line or line.startswith("FAILED"):
                    print(f"  {line}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run every workload briefly and check the output")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if args.smoke:
        return smoke(root, min(args.seconds, 2.0))
    if args.workload is None:
        ap.error("--workload is required without --smoke")
    return run(root, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
