"""Per-layer tracing from outside the program, for the benchmark's traced run.

Layers are gridmarg's modules. ``Tracer.install`` wraps each layer's public
functions (plus the sweep cell runner) and rebinds every name that refers to
them in any loaded ``gridmarg`` module, because ``metrics``, ``scheduler``
and ``cli`` import functions by name while ``lp.solve`` is looked up as a
module attribute. Each call records a span (name, start, end, parent) in
memory; ``summary`` turns the spans and the counts into per-layer metrics.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time sums that over the layer's spans. Work the
tracer itself does inside a span (hashing LPs to find repeat solves) is
recorded as a ``trace.*`` child span, so it is charged to no layer.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import statistics
import sys
import time

import numpy as np

LAYERS = ("cli", "scenario_io", "grid", "planner", "lp", "metrics", "scheduler")
_EXTRA = {"cli": ("_run_sweep_cell",)}  # private, but it is the unit of sweep work

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.sweep_cells", "count"),
    ("cli.sweep_cell_s", "s"),
    ("scheduler.passes", "count"),
    ("scheduler.self_s", "s"),
    ("metrics.self_s", "s"),
    ("planner.builds", "count"),
    ("planner.build_s", "s"),
    ("planner.decode_s", "s"),
    ("planner.lp_nnz", "count"),
    ("lp.solves", "count"),
    ("lp.solve_s", "s"),
    ("lp.simplex_iterations", "count"),
    ("lp.repeat_solves", "count"),
    ("grid.resolve_s", "s"),
    ("scenario_io.load_s", "s"),
)

_BUILDS = ("planner.build_expansion_lp", "planner.build_operational_lp")


def _problem_digest(problem) -> bytes:
    h = hashlib.blake2b(digest_size=20)
    for arr in (problem.c, problem.b_eq, problem.b_ub, problem.lb, problem.ub):
        h.update(np.ascontiguousarray(arr).tobytes())
    for mat in (problem.A_eq, problem.A_ub):
        h.update(repr(mat.shape).encode())
        for arr in (mat.data, mat.indices, mat.indptr):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.digest()


class Tracer:
    """Spans and counts for one answer; install once, before the answer runs."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.iterations = 0
        self.repeat_solves = 0
        self.passes: list[int] = []
        self.max_nnz = 0
        self._seen: set[bytes] = set()

    # --- recording ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._observe(name, args, result)
            return result
        return traced

    def _observe(self, name: str, args, result) -> None:
        if name in _BUILDS:
            problem = result.problem
            self.max_nnz = max(self.max_nnz, int(problem.A_eq.nnz + problem.A_ub.nnz))
        elif name == "scheduler.schedule_min_srme":
            self.passes.append(result[1].iterations_used)

    def _wrap_solve(self, fn):
        traced = self._wrap("lp.solve", fn)

        @functools.wraps(fn)
        def solve(problem, *args, **kwargs):
            idx = self._open("trace.digest")
            digest = _problem_digest(problem)
            self._close(idx)
            if digest in self._seen:
                self.repeat_solves += 1
            self._seen.add(digest)
            return traced(problem, *args, **kwargs)
        return solve

    def _wrap_backend(self, fn):
        @functools.wraps(fn)
        def backend(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.iterations += int(getattr(res, "nit", 0) or 0)
            return res
        return backend

    # --- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's functions and rebind them wherever they are named."""
        import gridmarg  # noqa: F401  (loads every layer module)
        import gridmarg.cli
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "gridmarg" or n.startswith("gridmarg.")]
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"gridmarg.{layer}"]
            names = [n for n, f in vars(mod).items()
                     if inspect.isfunction(f) and f.__module__ == mod.__name__
                     and not n.startswith("_")]
            for name in names + list(_EXTRA.get(layer, ())):
                fn = getattr(mod, name)
                wrapped = (self._wrap_solve(fn) if (layer, name) == ("lp", "solve")
                           else self._wrap(f"{layer}.{name}", fn))
                replacements[id(fn)] = wrapped
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements:
                    setattr(mod, attr, replacements[id(value)])
        lp = sys.modules["gridmarg.lp"]
        lp.linprog = self._wrap_backend(lp.linprog)

    # --- reduction ---------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far (one answer)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = {}
        total: dict[str, float] = {}
        durations: dict[str, list[float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_time[i]
            total[name] = total.get(name, 0.0) + (end - start)
            durations.setdefault(name, []).append(end - start)
        cells = durations.get("cli._run_sweep_cell", [])
        return {
            "cli.self_s": self_s.get("cli", 0.0),
            "cli.sweep_cells": len(cells),
            "cli.sweep_cell_s": statistics.median(cells) if cells else 0.0,
            "scheduler.passes": statistics.median(self.passes) if self.passes else 0,
            "scheduler.self_s": self_s.get("scheduler", 0.0),
            "metrics.self_s": self_s.get("metrics", 0.0),
            "planner.builds": sum(len(durations.get(n, [])) for n in _BUILDS),
            "planner.build_s": sum(total.get(n, 0.0) for n in _BUILDS),
            "planner.decode_s": total.get("planner.decode_solution", 0.0),
            "planner.lp_nnz": self.max_nnz,
            "lp.solves": len(durations.get("lp.solve", [])),
            "lp.solve_s": total.get("lp.solve", 0.0),
            "lp.simplex_iterations": self.iterations,
            "lp.repeat_solves": self.repeat_solves,
            "grid.resolve_s": total.get("grid.resolve_scenario", 0.0),
            "scenario_io.load_s": total.get("scenario_io.load_scenario", 0.0),
        }

    def dump_spans(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
