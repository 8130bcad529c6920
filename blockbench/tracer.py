"""Span tracer for the traced benchmark run.

Every public function the benchmark reaches is wrapped from here, without
touching the package: module functions are rebound in every ``blockmin``
module that holds them, term and problem methods are rebound on their class,
and the objective callables are wrapped on the handle with
``dataclasses.replace``. A span records its duration, and its self time is
the duration minus the spans it caused. Counts are kept per span name,
solver label and parent span, so ratios can be taken where the work happens.

``Tracer.layer_metrics`` turns one round of spans into the per-layer metrics
listed in BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

SOLVERS = ("am", "aam0", "aam_mu", "aam_l", "fgm")
CALLABLES = ("value", "block_gradient", "block_argmin", "line_minimizer")
CERTIFICATES = {
    "check_am_linear": "am_linear_pl",
    "check_am_sublinear": "am_sublinear",
    "check_aam_main": "aam_main",
    "check_aam_Ak": "aam_Ak_growth",
    "check_aam_adaptive": "aam_adaptive",
    "check_nearly_pl": "nearly_pl_combined",
}
_HANDLE_FIELDS = {"value": "smooth_value", "block_gradient": "block_gradient",
                  "block_argmin": "block_argmin", "line_minimizer": "line_minimizer"}
_RECORD_ARRAYS = ("x", "y", "v", "grad_y")
_MIB = float(1 << 20)


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for c in CALLABLES:
        for s in SOLVERS:
            units[f"objective.calls_per_iter.{c}.{s}"] = "calls/iter"
    for c in CALLABLES:
        units[f"objective.{c}.self_s"] = "s"
    for s in SOLVERS:
        units[f"solvers.iters.{s}"] = "count"
    for s in SOLVERS:
        units[f"solvers.ms_per_iter.{s}"] = "ms/iter"
    units.update({
        "solvers.line_search.s": "s", "solvers.line_search.value_calls": "count",
        "solvers.greedy_block.s": "s", "solvers.coefficient.s": "s",
        "solvers.self_s": "s", "solvers.trace_mib": "MiB",
        "linalg.cholesky.s": "s", "linalg.solve_spd.calls": "count",
        "linalg.solve_spd.s": "s", "linalg.spectral_extremes.s": "s",
        "problems.build.s": "s",
        "proxmaps.soft_threshold.calls": "count", "proxmaps.prox.calls": "count",
        "proxmaps.s": "s",
    })
    for kind in CERTIFICATES.values():
        units[f"certificates.{kind}.s"] = "s"
    units.update({
        "certificates.rows": "count",
        "cli.instance_builds": "count", "cli.instance_build.s": "s",
        "cli.write_trace.s": "s", "cli.read_trace.s": "s",
        "cli.trace_csv_kib": "KiB",
    })
    return units


class Tracer:
    """Collects spans for one round; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._queue: list[str] = []
        self.reset()

    def reset(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.span_s: dict[str, float] = defaultdict(float)
        # (span, solver label, parent span) -> number of spans
        self.calls: Counter = Counter()
        self.iters: Counter = Counter()
        self.solver_s: dict[str, float] = defaultdict(float)
        self.trace_bytes: list[int] = [0]  # per `blockmin run`
        self.rows = 0
        self.csv_bytes = 0
        self._stack: list[list] = []  # [span name, child seconds]
        self.solver: str | None = None

    def begin_run(self, solver_names):
        """Label the solver runs of the next ``blockmin run`` in config order."""
        self._queue = list(solver_names)
        self.trace_bytes.append(0)

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; ``after(result)`` sees each result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._stack
            parent = st[-1][0] if st else None
            frame = [name, 0.0]
            st.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st.pop()
                self.self_s[name] += dt - frame[1]
                self.span_s[name] += dt
                self.calls[(name, self.solver, parent)] += 1
                if st:
                    st[-1][1] += dt
            if after is not None:
                after(result)
            return result
        return traced

    def _wrap_solver(self, fn):
        inner = self.wrap("solvers.run", fn)

        @functools.wraps(fn)
        def run(*args, **kwargs):
            label = self._queue.pop(0) if self._queue else fn.__name__
            outer, self.solver = self.solver, label
            t0 = perf_counter()
            try:
                trace = inner(*args, **kwargs)
            finally:
                self.solver = outer
            self.solver_s[label] += perf_counter() - t0
            self.iters[label] += trace.final.k
            self.trace_bytes[-1] += sum(
                getattr(r, a).nbytes for r in trace.records for a in _RECORD_ARRAYS
                if getattr(r, a) is not None)
            return trace
        return run

    def _count_rows(self, report):
        self.rows += len(report.rows)

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement):
        """Rebind ``original`` to ``replacement`` in every blockmin module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "blockmin" or mod_name.startswith("blockmin.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _rebind_attr(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        from blockmin import certificates, cli, linalg, problems, proxmaps, solvers

        for fn in (solvers.run_am, solvers.run_aam, solvers.run_fgm):
            self._rebind(fn, self._wrap_solver(fn))
        self._rebind(solvers.exact_line_search,
                     self.wrap("solvers.line_search", solvers.exact_line_search))
        self._rebind(solvers.greedy_block,
                     self.wrap("solvers.greedy_block", solvers.greedy_block))
        for fn in (solvers.choose_a_known_L, solvers.choose_a_adaptive):
            self._rebind(fn, self.wrap("solvers.coefficient", fn))
        for fn in (linalg.cholesky, linalg.solve_spd, linalg.spectral_extremes):
            self._rebind(fn, self.wrap(f"linalg.{fn.__name__}", fn))
        for fn in (problems.make_quadratic, problems.make_rank_deficient,
                   problems.make_composite, problems.make_nonlinear_pl):
            self._rebind(fn, self.wrap("problems.build", fn))
        self._rebind(proxmaps.soft_threshold,
                     self.wrap("proxmaps.soft_threshold", proxmaps.soft_threshold))
        for term in (proxmaps.ZeroTerm, proxmaps.L1Term, proxmaps.BoxTerm):
            self._rebind_attr(term, "prox", self.wrap("proxmaps.prox", term.prox))
        for fn_name, kind in CERTIFICATES.items():
            fn = getattr(certificates, fn_name)
            self._rebind(fn, self.wrap(f"certificates.{kind}", fn, self._count_rows))
        self._rebind(cli.InstanceInfo, self.wrap("cli.instance_build", cli.InstanceInfo))
        self._rebind(cli.write_trace_csv, self.wrap("cli.write_trace", cli.write_trace_csv))
        self._rebind(cli.read_trace_csv, self.wrap("cli.read_trace", cli.read_trace_csv))
        for cls in (problems.QuadraticSplitProblem, problems.CompositeQuadraticProblem,
                    problems.NonlinearEqPlProblem):
            self._rebind_attr(cls, "handle", self._traced_handle(cls.handle))

    def _traced_handle(self, make_handle):
        tracer = self

        @functools.wraps(make_handle)
        def handle(problem):
            h = make_handle(problem)
            fields = {}
            for short, attr in _HANDLE_FIELDS.items():
                fn = getattr(h, attr)
                if fn is not None:
                    fields[attr] = tracer.wrap(f"objective.{short}", fn)
            return dataclasses.replace(h, **fields)
        return handle

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- metrics -----------------------------------------------------------

    def _count(self, span: str, solver=None, parent=None) -> int:
        return sum(n for (s, lab, par), n in self.calls.items()
                   if s == span and (solver is None or lab == solver)
                   and (parent is None or par == parent))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        m = {}
        for c in CALLABLES:
            for s in SOLVERS:
                it = self.iters[s]
                m[f"objective.calls_per_iter.{c}.{s}"] = (
                    self._count(f"objective.{c}", solver=s) / it if it else 0.0)
        for c in CALLABLES:
            m[f"objective.{c}.self_s"] = self.self_s[f"objective.{c}"]
        for s in SOLVERS:
            m[f"solvers.iters.{s}"] = self.iters[s]
        for s in SOLVERS:
            it = self.iters[s]
            m[f"solvers.ms_per_iter.{s}"] = 1e3 * self.solver_s[s] / it if it else 0.0
        m["solvers.line_search.s"] = self.self_s["solvers.line_search"]
        m["solvers.line_search.value_calls"] = self._count(
            "objective.value", parent="solvers.line_search")
        m["solvers.greedy_block.s"] = self.self_s["solvers.greedy_block"]
        m["solvers.coefficient.s"] = self.self_s["solvers.coefficient"]
        m["solvers.self_s"] = self.self_s["solvers.run"]
        m["solvers.trace_mib"] = max(self.trace_bytes, default=0) / _MIB
        for name in ("cholesky", "spectral_extremes"):
            m[f"linalg.{name}.s"] = self.self_s[f"linalg.{name}"]
        m["linalg.solve_spd.calls"] = self._count("linalg.solve_spd")
        m["linalg.solve_spd.s"] = self.self_s["linalg.solve_spd"]
        m["problems.build.s"] = self.self_s["problems.build"]
        m["proxmaps.soft_threshold.calls"] = self._count("proxmaps.soft_threshold")
        m["proxmaps.prox.calls"] = self._count("proxmaps.prox")
        m["proxmaps.s"] = self.self_s["proxmaps.soft_threshold"] + self.self_s["proxmaps.prox"]
        for kind in CERTIFICATES.values():
            m[f"certificates.{kind}.s"] = self.self_s[f"certificates.{kind}"]
        m["certificates.rows"] = self.rows
        m["cli.instance_builds"] = self._count("cli.instance_build")
        # the one inclusive time: an instance build is almost all problems-layer work
        m["cli.instance_build.s"] = self.span_s["cli.instance_build"]
        m["cli.write_trace.s"] = self.self_s["cli.write_trace"]
        m["cli.read_trace.s"] = self.self_s["cli.read_trace"]
        m["cli.trace_csv_kib"] = self.csv_bytes / 1024.0
        return {k: float(v) for k, v in m.items()}


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Median over rounds of each metric."""
    return {k: float(np.median([r[k] for r in rounds])) for k in rounds[0]}
