"""Benchmark workloads: configs made from a seed, instance builds, and the
checks of the program's outputs against computations made apart from it.

Every check returns a list of problems found (empty means it passed), so the
self-test can feed it corrupted inputs and see it trip.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.optimize

from blockmin import problems

# certificates must have looked at this many rows to count as a check
MIN_ROWS = 5
# the one skip reason a requested certificate may give: it targets mu = 0 runs
MU_SKIP = "applies to mu_assumed = 0 runs only"
# agreement of the program's F* with the independent solve, relative to max(1, |F*|)
FSTAR_RTOL = 1e-9
# the planted solution of a nonlinear instance must zero the residual to this
RESIDUAL_TOL = 1e-12
# slack for AM values that rise by rounding only, relative to 1 + |F*| + gap
MONOTONE_RTOL = 1e-12

CERT_METHOD = {"am_linear_pl": "am", "nearly_pl_combined": "am", "am_sublinear": "am",
               "aam_main": "aam", "aam_Ak_growth": "aam", "aam_adaptive": "aam"}


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[int, bool], list[dict]]
    reference: Callable[[object, dict], dict]
    check_instance: Callable[[object, dict], list[str]]


def instance_seeds(seed: int, count: int) -> list[int]:
    """Instance seeds drawn from the benchmark seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _solver(name: str, method: str, target: float, max_iters: int, **extra) -> dict:
    return dict({"name": name, "method": method, "max_iters": max_iters,
                 "target_gap": target}, **extra)


# ---------------------------------------------------------------------------
# quad_d1024
# ---------------------------------------------------------------------------

def quad_configs(seed: int, tiny: bool = False) -> list[dict]:
    dim = 32 if tiny else 1024
    target = 1e-6
    solvers = [
        _solver("am", "am", target, 5000),
        _solver("aam0", "aam", target, 5000, mu_assumed=0.0),
        _solver("aam_mu", "aam", target, 5000, mu_assumed="optimal"),
        _solver("aam_l", "aam", target, 5000, mu_assumed="optimal", l_known="optimal"),
        _solver("fgm", "fgm", target, 5000, l_known="optimal"),
    ]
    return [{"instance": {"kind": "quadratic", "seed": s, "dim": dim, "cond_number": 100.0},
             "solvers": solvers,
             "certificates": ["am_linear_pl", "am_sublinear", "aam_main",
                              "aam_Ak_growth", "aam_adaptive"]}
            for s in instance_seeds(seed, 1)]


def quad_reference(problem, spec: dict) -> dict:
    """Least squares of (W, b) by numpy's SVD-based solver, apart from the
    program's Cholesky path."""
    x, *_ = np.linalg.lstsq(problem.W, problem.b, rcond=None)
    r = problem.W @ x - problem.b
    return {"f_star": float(r @ r), "x_star": x}


def quad_check(problem, ref: dict) -> list[str]:
    found = _fstar_agrees(problem.f_star, ref["f_star"])
    err = float(np.linalg.norm(problem.x_star - ref["x_star"]))
    if err > 1e-8 * (1.0 + float(np.linalg.norm(ref["x_star"]))):
        found.append(f"x* differs from the least-squares solution by {err:.3g}")
    return found


# ---------------------------------------------------------------------------
# composite_d256
# ---------------------------------------------------------------------------

def composite_configs(seed: int, tiny: bool = False) -> list[dict]:
    dim = 16 if tiny else 256
    return [{"instance": {"kind": "composite", "seed": s, "dim": dim, "gamma": 0.4,
                          "kinds": ["l1", "box"], "box_bounds": [-0.5, 0.5],
                          "cond_number": 50.0},
             "solvers": [_solver("am", "am", 1e-8, 2000)],
             "certificates": ["am_linear_pl", "nearly_pl_combined"]}
            for s in instance_seeds(seed, 3)]


def composite_reference(problem, spec: dict) -> dict:
    """Optimum by L-BFGS-B on the split-sign reformulation: each l1 block is
    x = p - q with p, q >= 0 and weight * sum(p + q); each box block is a
    bound; zero blocks are free."""
    W, b = problem.W, problem.b
    gamma = float(spec["gamma"])
    lo_box, hi_box = spec["box_bounds"]
    half = W.shape[1] // 2
    blocks = [np.arange(half), np.arange(half, 2 * half)]
    # one variable group per (block, sign): columns, sign, l1 weight, bounds
    groups = []
    for idx, kind in zip(blocks, spec["kinds"]):
        if kind == "l1":
            groups += [(idx, 1.0, gamma, (0.0, None)), (idx, -1.0, gamma, (0.0, None))]
        elif kind == "box":
            groups.append((idx, 1.0, 0.0, (lo_box, hi_box)))
        else:
            groups.append((idx, 1.0, 0.0, (None, None)))
    sizes = [g[0].size for g in groups]
    cuts = np.cumsum([0] + sizes)

    def to_x(z):
        x = np.zeros(W.shape[1])
        for (idx, sign, _, _), a, e in zip(groups, cuts[:-1], cuts[1:]):
            x[idx] += sign * z[a:e]
        return x

    def fun(z):
        r = W @ to_x(z) - b
        g_full = 2.0 * (W.T @ r)
        value = float(r @ r)
        grad = np.empty_like(z)
        for (idx, sign, weight, _), a, e in zip(groups, cuts[:-1], cuts[1:]):
            value += weight * float(z[a:e].sum())
            grad[a:e] = sign * g_full[idx] + weight
        return value, grad

    bounds = [g[3] for g in groups for _ in range(g[0].size)]
    res = scipy.optimize.minimize(fun, np.zeros(int(cuts[-1])), jac=True, method="L-BFGS-B",
                                  bounds=bounds,
                                  options={"ftol": 1e-16, "gtol": 1e-13, "maxiter": 20000})
    return {"f_star": float(res.fun)}


def composite_check(problem, ref: dict) -> list[str]:
    return _fstar_agrees(problem.f_star, ref["f_star"])


# ---------------------------------------------------------------------------
# nonlinear_n200
# ---------------------------------------------------------------------------

def nonlinear_configs(seed: int, tiny: bool = False) -> list[dict]:
    n, m, count = (20, 14, 2) if tiny else (200, 140, 36)
    solvers = [_solver("am", "am", 1e-10, 400),
               _solver("aam0", "aam", 1e-10, 400, mu_assumed=0.0)]
    return [{"instance": {"kind": "nonlinear_pl", "seed": s, "n": n, "m": m},
             "solvers": solvers, "certificates": ["aam_adaptive"]}
            for s in instance_seeds(seed, count)]


def nonlinear_reference(problem, spec: dict) -> dict:
    return {}


def nonlinear_check(problem, ref: dict) -> list[str]:
    """g(x) = A x + eps sin(x_{1..m}) + c must vanish at the planted solution."""
    a, c, x = problem.amat, problem.c, problem.x_solution
    m = a.shape[0]
    r = a @ x + problem.eps * np.sin(x[:m]) + c
    worst = float(np.abs(r).max())
    if worst > RESIDUAL_TOL * (1.0 + float(np.abs(c).max())):
        return [f"residual at the planted solution is {worst:.3g}"]
    return []


# why each workload was chosen is in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("quad_d1024", quad_configs, quad_reference, quad_check),
    Workload("composite_d256", composite_configs, composite_reference, composite_check),
    Workload("nonlinear_n200", nonlinear_configs, nonlinear_reference, nonlinear_check),
)}


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def build(spec: dict):
    """Build an instance through the public constructor the CLI uses for it."""
    kind = spec["kind"]
    if kind == "quadratic":
        return problems.make_quadratic(spec["seed"], spec["dim"], spec["cond_number"])
    if kind == "composite":
        return problems.make_composite(spec["seed"], spec["dim"], spec["gamma"],
                                       kinds=tuple(spec["kinds"]),
                                       box_bounds=tuple(spec["box_bounds"]),
                                       cond_number=spec["cond_number"])
    if kind == "nonlinear_pl":
        return problems.make_nonlinear_pl(spec["seed"], spec["n"], spec["m"])
    raise ValueError(f"no build for instance kind {kind!r}")


def _fstar_agrees(f_star: float, ref: float) -> list[str]:
    if abs(f_star - ref) > FSTAR_RTOL * max(1.0, abs(ref)):
        return [f"F* = {f_star!r} but the independent solve gives {ref!r}"]
    return []


def read_trace(path) -> dict[str, list[tuple[int, float]]]:
    """(k, f_gap) rows of trace.csv per solver, in file order."""
    rows: dict[str, list[tuple[int, float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row["solver"], []).append((int(row["k"]), float(row["f_gap"])))
    return rows


def check_run(solver: dict, summary_run: dict | None,
              rows: list[tuple[int, float]]) -> list[str]:
    """The solver stopped at the first row within its target gap, and the
    trace and summary agree on where that was."""
    name, target = solver["name"], solver["target_gap"]
    if summary_run is None:
        return [f"{name}: no summary entry"]
    found = []
    if summary_run["status"] != "target_gap":
        found.append(f"{name}: stopped with status {summary_run['status']!r}")
    if len(rows) < 2:
        found.append(f"{name}: trace has {len(rows)} row(s)")
    if [k for k, _ in rows] != list(range(len(rows))):
        found.append(f"{name}: trace rows are not k = 0, 1, 2, ...")
    if rows and rows[-1][0] != summary_run["iterations"]:
        found.append(f"{name}: trace ends at k={rows[-1][0]}, "
                     f"summary says {summary_run['iterations']}")
    if not rows or not rows[-1][1] <= target:
        found.append(f"{name}: last gap is above the target {target!r}")
    early = [k for k, g in rows[:-1] if g <= target]
    if early:
        found.append(f"{name}: ran past k={early[0]}, where the gap met the target")
    return found


def check_monotone(name: str, rows: list[tuple[int, float]], f_star: float) -> list[str]:
    """AM takes exact block minimizations, so its values never increase."""
    for (k0, g0), (k1, g1) in zip(rows, rows[1:]):
        if g1 > g0 + MONOTONE_RTOL * (1.0 + abs(f_star) + abs(g0)):
            return [f"{name}: value rises from k={k0} to k={k1} ({g0!r} -> {g1!r})"]
    return []


def expected_checks(cfg: dict) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(certificate, solver) pairs verify must run, and those it may skip."""
    run, skip = [], []
    for s in cfg["solvers"]:
        run.append(("gap_nonnegative", s["name"]))
        for kind in cfg["certificates"]:
            if CERT_METHOD[kind] != s["method"]:
                continue
            if kind == "aam_adaptive" and s.get("mu_assumed", 0.0) != 0.0:
                skip.append((kind, s["name"]))
            else:
                run.append((kind, s["name"]))
    return run, skip


def check_report(cfg: dict, report: dict) -> list[str]:
    """verify found no violation, ran every applicable certificate on enough
    rows, and skipped only the mu-mismatch pairs."""
    must_run, may_skip = expected_checks(cfg)
    found = []
    if report.get("violations") != 0:
        found.append(f"verify reports {report.get('violations')} violation(s)")
    seen = {}
    for r in report.get("results", []):
        seen[(r["certificate"], r["solver"])] = r
    for key in must_run:
        r = seen.get(key)
        if r is None or "skipped" in r:
            found.append(f"{key[0]} on {key[1]} did not run"
                         + (f" ({r['skipped']})" if r else ""))
        elif not r.get("passed"):
            found.append(f"{key[0]} on {key[1]} failed at k={r.get('first_failure_k')}")
        elif key[0] != "gap_nonnegative" and r.get("rows", 0) < MIN_ROWS:
            found.append(f"{key[0]} on {key[1]} checked {r.get('rows')} row(s)")
    for key, r in seen.items():
        if key in must_run:
            continue
        if key not in may_skip or r.get("skipped") != MU_SKIP:
            found.append(f"unexpected result for {key[0]} on {key[1]}: {r}")
    for key in may_skip:
        if key not in seen:
            found.append(f"{key[0]} on {key[1]} neither ran nor was skipped")
    return found
