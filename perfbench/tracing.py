"""In-memory spans around calls into schrodavg's public functions.

Tracing wraps each function listed in ``LAYERS`` from the outside: every
module-level binding of the original function (in the defining module and in
every ``schrodavg.*`` module or package namespace that imported it) is
replaced by a wrapper that records a span, so calls between modules are
traced as well.  Nothing under ``src/`` changes; ``install`` returns a
function that puts the originals back.

A span is ``[name, start, end, parent, op, amount, raised]``.  ``amount`` is
what ``AMOUNTS`` computes from the call: for the functions in ``BYTES`` the
bytes of the NumPy arrays passed in and returned (*computed* from array
sizes, not measured memory traffic), for the oracle loop its CN step count.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from time import perf_counter

import numpy as np

# module -> {public function: span name suffix}; span name is "<module>.<suffix>"
LAYERS = {
    "spectral": {
        "make_dirichlet_basis": "make_basis",
        "make_periodic_basis": "make_basis",
        "make_custom_basis": "make_basis",
        "sobolev_norm": "sobolev_norm",
        "synthesize_on_grid": "synthesize_on_grid",
        "project_from_grid": "project_from_grid",
    },
    "averaging": {
        "zeta_factors": "zeta_factors",
        "apply_time_average": "apply_time_average",
        "zeta_to_csv": "zeta_to_csv",
    },
    "recover": {
        "recover_initial": "recover_initial",
        "reconstruct_solution": "reconstruct_solution",
        "conditioning_report": "conditioning_report",
        "stability_bound": "stability_bound",
        "report_to_csv": "report_to_csv",
    },
    "evolve": {
        "propagate": "propagate",
        "sample_trajectory": "sample_trajectory",
        "trajectory_sup_norm": "trajectory_sup_norm",
        "trajectory_to_csv": "trajectory_to_csv",
    },
    "fd_oracle": {
        "cn_step": "cn_step",
        "oracle_time_average": "oracle_time_average",
        "oracle_mu_coeffs": "oracle_mu_coeffs",
    },
    "cli": {"run": "run"},
}

SPAN_NAMES = sorted({f"{mod}.{s}" for mod, funcs in LAYERS.items() for s in funcs.values()})

# span names whose per-call array bytes are computed
BYTES = ("averaging.apply_time_average", "averaging.zeta_factors", "recover.reconstruct_solution")

NAME, START, END, PARENT, OP, AMOUNT, RAISED = range(7)


def _nbytes(obj) -> int:
    """Bytes of the arrays reachable from obj: arrays, coefficient vectors,
    bases (eigenvalues), trajectories (states), and tuples/lists of these."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x) for x in obj)
    total = 0
    for attr in ("values", "lambdas", "states", "times"):
        if hasattr(obj, attr):
            total += _nbytes(getattr(obj, attr))
    return total


def _call_bytes(args, kwargs, out) -> int:
    return _nbytes(args) + _nbytes(tuple(kwargs.values())) + _nbytes(out)


def _cn_steps(args, kwargs, out) -> int:
    params, cfg = args[1], args[2]  # oracle_time_average(xi_grid, params, cfg)
    return round(params.T / cfg.dt)


AMOUNTS = {name: _call_bytes for name in BYTES}
AMOUNTS["fd_oracle.oracle_time_average"] = _cn_steps


class Tracer:
    """Collects spans in memory; ``op(i)`` opens the parent span of op i."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self._op, 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, args, kwargs, amount=None):
        rec = self._open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec[RAISED] = True
            raise
        finally:
            self._close(rec)
        if amount is not None:
            rec[AMOUNT] = amount(args, kwargs, out)
        return out

    def op(self, op_id: int, fn, *args):
        """Run fn(*args) as the parent span of op ``op_id``."""
        self._op = op_id
        try:
            return self.call("op", fn, args, {})
        finally:
            self._op = -1

    # --- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def by_name(self) -> dict[str, dict]:
        """Per span name: self times, amounts, and how many calls raised."""
        stats: dict[str, dict] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            d = stats.setdefault(s[NAME], {"self_s": [], "amount": [], "raised": 0})
            d["self_s"].append(self_s)
            d["amount"].append(s[AMOUNT])
            d["raised"] += s[RAISED]
        return stats

    def largest_child_chain(self) -> list[tuple[str, float]]:
        """From the op span down: at each level the child name (aggregated
        over calls) with the largest inclusive time, with its share of the
        parent's time; stops when the largest child covers under half."""
        children: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            children.setdefault(s[PARENT], []).append(i)
        level = [i for i in children.get(-1, []) if self.spans[i][NAME] == "op"]
        chain: list[tuple[str, float]] = []
        while level:
            parent_total = sum(self.spans[i][END] - self.spans[i][START] for i in level)
            totals: dict[str, float] = {}
            members: dict[str, list[int]] = {}
            for p in level:
                for c in children.get(p, []):
                    s = self.spans[c]
                    totals[s[NAME]] = totals.get(s[NAME], 0.0) + s[END] - s[START]
                    members.setdefault(s[NAME], []).append(c)
            if not totals:
                break
            name = max(totals, key=totals.get)
            share = totals[name] / parent_total if parent_total > 0 else 0.0
            chain.append((name, share))
            if share < 0.5:
                break
            level = members[name]
        return chain


def _wrapper(tracer: Tracer, name: str, fn):
    amount = AMOUNTS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, amount)

    return traced


def install(tracer: Tracer):
    """Wrap every function in LAYERS; return a callable that undoes it.

    A function missing from the program is skipped, so its metrics read as
    never called instead of failing the run.
    """
    for mod in LAYERS:
        importlib.import_module(f"schrodavg.{mod}")
    namespaces = [m for n, m in list(sys.modules.items()) if n == "schrodavg" or n.startswith("schrodavg.")]
    undo: list[tuple[object, str, object]] = []
    for mod, funcs in LAYERS.items():
        module = sys.modules[f"schrodavg.{mod}"]
        for fname, suffix in funcs.items():
            orig = getattr(module, fname, None)
            if orig is None:
                continue
            wrapped = _wrapper(tracer, f"{mod}.{suffix}", orig)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, attr, wrapped)
                        undo.append((ns, attr, orig))

    def uninstall():
        for ns, attr, orig in reversed(undo):
            setattr(ns, attr, orig)

    return uninstall


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0
