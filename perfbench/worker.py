"""Benchmark worker: set up one workload, run it, print its metrics.

Started by run.py in a fresh interpreter with the environment pinned.  It
prints ``READY {...}`` as soon as the workload's inputs are ready (run.py
times set-up from launch to that line), then ``RESULT {...}`` at the end.
Any other stdout line is a human-readable note that run.py passes on.

    python3 perfbench/worker.py --workload bulk --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import schrodavg
import workloads
from tracing import BYTES, END, NAME, OP, SPAN_NAMES, START, Tracer, install, median

# the largest child each workload was designed to expose
EXPECTED_LARGEST = {"bulk": "recover.reconstruct_solution", "oracle": "fd_oracle.oracle_time_average"}
CN_PROBE_STEPS = 50


class Run:
    """Per-op durations, failures and check extras of one measured loop."""

    def __init__(self):
        self.durations: list[float] = []
        self.failures: list[str] = []
        self.extras: list[dict | None] = []
        self.probe_s: list[float] = []  # mean of the speed probes around each op, if any

    def add(self, other: "Run") -> None:
        self.durations += other.durations
        self.failures += other.failures
        self.extras += other.extras


class SpeedProbe:
    """A fixed kernel, timed just before and just after each op, that follows
    the speed of the host.

    On the shared 2-vCPU Xeon host the benchmark was tuned on, the CPU
    switches between fast and slow states, within 100 ms as well as over
    minutes; a ``sweep`` op then takes 1.2 to 2.6 ms, and the state, not the
    program, set the spread of its medians from run to run (0.44 over 12.5 s
    chunks of one recording, 0.43 and 0.52 over two sets of ten runs).  The
    kernel, two in-cache exps of 2^12 complex values and a 400-step Python
    loop (about 0.2 ms), slows down with interpreter-bound ops.  With each
    op's duration scaled by ``REF_S`` over the mean of the probes around it,
    the spreads on the same chunks fell to 0.014 for the median, 0.041 for
    the p95 and 0.006 for ops per second (one probe before the op alone left
    0.066 on the p95: the state can change between probe and op).  A ``cli``
    op, a fresh interpreter of about a second, slowed with the kernel too
    (log-log slope 0.98 over sessions of 9 ops), and 8 probes on each side
    cut the spread of its median over 18-op chunks from 0.30 to 0.07.
    ``bulk`` and ``oracle`` ops, whose time goes to NumPy and LAPACK on
    large vectors, slowed only as the kernel's time to a power of about 0.5
    to 0.6, so scaling would over-correct them; they are not normalised.

    A normalised duration reads in seconds at the speed where the kernel
    takes ``REF_S``, about the fast state of that host.  The kernel is not
    program code, so a change to the program shows in full.
    """

    REF_S = 2.0e-4  # the kernel's time in the fast state of the tuning host

    def __init__(self, count: int):
        self.count = count  # kernel runs per probe
        self.a = np.exp(1j * np.linspace(0.0, 1.0, 2**12))
        self.tmp = np.empty_like(self.a)
        self.out = np.empty_like(self.a)

    def __call__(self) -> float:
        """The mean time of ``count`` runs of the kernel."""
        t0 = perf_counter()
        for _ in range(self.count):
            for _ in range(2):
                np.multiply(self.a, 0.3, out=self.tmp)
                np.exp(self.tmp, out=self.out)
            s = 0
            for k in range(400):
                s += k * k
        return (perf_counter() - t0) / self.count


def measure(wl, inputs, seconds=None, n_ops=None, tracer=None, probe: SpeedProbe | None = None) -> Run:
    """Closed loop, one op at a time, for exactly ``n_ops`` ops or else for
    the whole number of cycles of ``wl.cycle`` ops (a CLI session, a
    Dirichlet/periodic pair) that ends closest to ``seconds``: another cycle
    starts while, as long as the last one, it would be half done by then.
    Whole cycles keep the op mix fixed.  Only the op is timed; drawing
    inputs, checks and the speed ``probe`` just before and after each op
    are not."""
    run = Run()
    start = cycle_start = perf_counter()
    for i in itertools.count():
        if n_ops is not None and i >= n_ops:
            break
        if n_ops is None and i > 0 and i % wl.cycle == 0:
            now = perf_counter()
            if now + (now - cycle_start) / 2 - start > seconds:
                break
            cycle_start = now
        inp = next(inputs)
        if hasattr(wl, "prepare"):
            wl.prepare(inp)
        before = probe() if probe is not None else None
        extra, err = None, None
        t0 = perf_counter()
        try:
            out = tracer.op(i, wl.op, inp) if tracer else wl.op(inp)
        except Exception as exc:  # an op that crashes is a failed op, not a crashed benchmark
            err = f"{type(exc).__name__}: {exc}"
        run.durations.append(perf_counter() - t0)
        if probe is not None:
            run.probe_s.append((before + probe()) / 2)
        if err is None:
            try:
                extra = wl.check(inp, out)
            except Exception as exc:  # a wrong or malformed result fails the op
                err = f"{type(exc).__name__}: {exc}"
        if err is not None:
            run.failures.append(err)
        run.extras.append(extra)
    return run


TAIL_CAP = 95.0


def tail(durations: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it, at most p95,
    and its value.

    Beyond p95 (more than 200 ops) the value follows stalls and speed
    changes of the host more than the program, and it spreads run to run
    more than the bounds allow.  With 20 ops or fewer no percentile above
    the median qualifies, so the tail is the median.
    """
    xs = sorted(durations)
    n = len(xs)
    if n <= 20:
        return 50.0, float(statistics.median(xs))
    beyond = max(10, math.ceil(n * (100.0 - TAIL_CAP) / 100.0))
    return 100.0 * (n - beyond) / n, xs[n - 1 - beyond]


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def end_to_end(wl, run: Run) -> dict:
    durations = run.durations
    n = len(durations)
    print(f"ops: {n} attempted, {len(run.failures)} failed (failed_frac {len(run.failures) / n:.6g})")
    if run.probe_s:
        durations = [d * SpeedProbe.REF_S / p for d, p in zip(run.durations, run.probe_s)]
        print(
            f"op times normalised by the speed probe (REF_S {SpeedProbe.REF_S:g} s): probe median "
            f"{median(run.probe_s):.6g} s, p10 {statistics.quantiles(run.probe_s, n=10)[0]:.6g} s; "
            f"measured op_s.p50 {median(run.durations):.6g} s, ops_per_s {n / sum(run.durations):.6g}"
        )
    pct, tail_s = tail(durations)
    print(f"op_s.tail is p{pct:.1f} of {n} ops")
    return {
        "op_s.p50": (median(durations), "s"),
        "op_s.tail": (tail_s, "s"),
        "ops_per_s": (n / sum(durations), "1/s"),
        "peak_rss_mb": (peak_rss_mb(wl), "MiB"),
        "ok_frac": (1.0 - len(run.failures) / n, "fraction"),
    }


def _timed(cmd: list[str]) -> float:
    t0 = perf_counter()
    subprocess.run(cmd, check=True, capture_output=True, timeout=60)
    return perf_counter() - t0


def startup_probes() -> dict:
    """Interpreter start, import cost and per-module import times of the CLI."""
    py = sys.executable
    bare = statistics.median(_timed([py, "-c", "pass"]) for _ in range(5))
    imp = statistics.median(_timed([py, "-c", "import schrodavg.cli"]) for _ in range(3))
    proc = subprocess.run(
        [py, "-X", "importtime", "-c", "import schrodavg.cli"], capture_output=True, text=True, check=True, timeout=60
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) * 1e-6
    return {
        "cli.interp_start_s": (bare, "s"),
        "cli.import_s": (imp - bare, "s"),
        "cli.import.spectral_s": (cumulative.get("schrodavg.spectral", 0.0), "s"),
        "cli.import.fd_oracle_s": (cumulative.get("schrodavg.fd_oracle", 0.0), "s"),
    }


def cn_step_probe() -> Tracer:
    """fd_oracle.cn_step timed on its own: single steps at M = 2048."""
    tracer = Tracer()
    fd = schrodavg.FdConfig(workloads.Oracle.M, workloads.Oracle.DT)
    x = np.linspace(0.0, 1.0, fd.interior_points + 2)[1:-1]
    state = schrodavg.GridState(np.sin(np.pi * x) + 0j)
    undo = install(tracer)
    try:
        for _ in range(CN_PROBE_STEPS):
            state = schrodavg.cn_step(state, fd)
    finally:
        undo()
    return tracer


def per_layer(name, ops: Tracer, n_ops, cli_tracer: Tracer, cli_run: Run, cn: Tracer, overhead) -> dict:
    """Metrics named after the layer functions.  ``self_s`` comes from the
    workload's own traced ops; a function those ops never call is taken from
    the traced CLI session instead (and its ``calls`` reads 0)."""
    own, cli_stats = ops.by_name(), cli_tracer.by_name()
    m = {}
    fallback = []
    for span in SPAN_NAMES:
        src = own.get(span)
        if src is None and span in cli_stats:
            src = cli_stats[span]
            fallback.append(span)
        m[f"{span}.self_s"] = (median(src["self_s"]) if src else 0.0, "s")
        m[f"{span}.calls"] = (len(own[span]["self_s"]) / n_ops if span in own else 0.0, "count/op")
        if span in BYTES:
            m[f"{span}.bytes"] = (median(src["amount"]) if src else 0.0, "bytes")
    m["fd_oracle.cn_step.self_s"] = (median(cn.by_name()["fd_oracle.cn_step"]["self_s"]), "s")
    steps = own.get("fd_oracle.oracle_time_average", {"amount": []})["amount"]
    m["fd_oracle.steps"] = (sum(steps) / n_ops, "count/op")
    m["recover.refusals"] = (own.get("recover.recover_initial", {"raised": 0})["raised"] / n_ops, "count/op")
    m["trace.overhead_frac"] = (overhead, "fraction")

    # CLI session: per-command in-process run time and report.json total_s
    labels = {i: e["label"] for i, e in enumerate(cli_run.extras) if e}
    run_s: dict[str, list[float]] = {}
    for s in cli_tracer.spans:
        if s[NAME] == "cli.run" and s[OP] in labels:
            run_s.setdefault(labels[s[OP]], []).append(s[END] - s[START])
    for label in workloads.SESSION_LABELS:
        totals = [e["total_s"] for e in cli_run.extras if e and e["label"] == label]
        m[f"cli.run.{label}_s"] = (median(run_s.get(label, [])), "s")
        m[f"cli.report_total.{label}_s"] = (median(totals), "s")
    written = [e["bytes"] for e in cli_run.extras if e]
    m["cli.bytes_written"] = (sum(written) / max(1, len(written)), "bytes/op")
    m.update(startup_probes())

    if fallback:
        print("self_s from the traced CLI session (not called by this workload's ops): " + ", ".join(fallback))
    print("bytes per call are computed from array sizes, not measured traffic")
    report_decomposition(name, ops, m)
    return m


def report_decomposition(name: str, ops: Tracer, m: dict) -> None:
    """Print the largest-child chain of the ops and whether it matches."""
    chain = ops.largest_child_chain()
    print("largest child chain: " + " > ".join(f"{n} ({share:.0%})" for n, share in chain))
    if name == "cli":
        shares = {
            "cli.interp_start_s": m["cli.interp_start_s"][0],
            "cli.import_s": m["cli.import_s"][0],
            "cli.run (median command)": median([m[f"cli.run.{lb}_s"][0] for lb in workloads.SESSION_LABELS]),
        }
        total = sum(shares.values())
        largest = max(shares, key=shares.get)
        print("share of a subprocess op: " + ", ".join(f"{k} {v / total:.0%}" for k, v in shares.items()))
        verdict = "match" if largest == "cli.import_s" else "MISMATCH"
        print(f"largest share: {largest}; expected cli.import_s: {verdict}")
    elif name in EXPECTED_LARGEST:
        expected = EXPECTED_LARGEST[name]
        verdict = "match" if expected in [n for n, _ in chain] else "MISMATCH"
        print(f"expected {expected} on the chain: {verdict}")


def traced_run(name, wl, seed, seconds, workdir):
    """Untraced then traced ops (same count, same input structure), the CLI
    session, the cn_step probe and the start-up probes."""
    if name == "cli":
        wl.in_process = True
    plain = measure(wl, wl.inputs(np.random.default_rng([seed, 1])), seconds=seconds / 2)
    n_ops = len(plain.durations)
    tracer = Tracer()
    undo = install(tracer)
    try:
        traced = measure(wl, wl.inputs(np.random.default_rng([seed, 2])), n_ops=n_ops, tracer=tracer)
    finally:
        undo()
    # op i of each half has the same shape (command, basis kind), so the
    # median per-pair ratio is robust to first-call costs in either half
    overhead = median([t / p for t, p in zip(traced.durations, plain.durations)]) - 1.0
    total = Run()
    total.add(plain)
    total.add(traced)
    if name == "cli":
        cli_tracer, cli_run = tracer, traced
    else:
        session = workloads.Cli(workdir, in_process=True)
        cli_tracer = Tracer()
        undo = install(cli_tracer)
        try:
            cli_run = measure(
                session, session.inputs(np.random.default_rng([seed, 3])), n_ops=len(workloads.SESSION), tracer=cli_tracer
            )
        finally:
            undo()
        total.add(cli_run)
    metrics = per_layer(name, tracer, n_ops, cli_tracer, cli_run, cn_step_probe(), overhead)
    return total, metrics


def env_info() -> dict:
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.make(args.workload, args.workdir)
    inputs = wl.inputs(np.random.default_rng([args.seed, 0]))
    inputs = itertools.chain([next(inputs)], inputs)
    print("READY " + json.dumps({"schrodavg": schrodavg.__file__}), flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        run, metrics = traced_run(args.workload, wl, args.seed, args.seconds, args.workdir)
    else:
        probe = None
        if wl.speed_probes:
            # the probes must run on the CPU that runs the op (and, for cli,
            # its child), so the worker and its children keep to one CPU
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            probe = SpeedProbe(wl.speed_probes)
        run = measure(wl, inputs, seconds=args.seconds, probe=probe)
        metrics = end_to_end(wl, run)
    for msg in sorted(set(run.failures))[:10]:
        print(f"FAILED: {msg}")
    result = {
        "attempted": len(run.durations),
        "failed": len(run.failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "env": env_info(),
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
