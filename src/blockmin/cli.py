"""Benchmark harness CLI.

Subcommands:

* ``run --config cfg.json --out DIR`` -- execute every configured
  (solver, instance) pair, write ``trace.csv`` and ``summary.json``.
* ``verify --trace trace.csv --config cfg.json [--strict]`` -- re-check the
  configured certificates against a trace file; exit 0 only if none is
  violated (with --strict, skipped or vacuous certificates also fail).
* ``figure --config cfg.json --out figure.csv`` -- gap-vs-iteration data for
  the four-method quadratic comparison (AM, accelerated AM with mu=0 and
  mu=mu*, fast gradient).

The config is a single JSON object; see README for the schema.

Exit codes: 0 pass, 1 certificate violation, 2 input/config error,
3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import certificates as certs
from .errors import BlockminError, ConfigError, SolverError, TraceParseError
from .problems import (make_composite, make_nonlinear_pl, make_quadratic,
                       make_rank_deficient)
from .solvers import (IterationRecord, SolverConfig, SolverTrace, run_aam,
                      run_am, run_fgm)

CSV_HEADER = ["k", "solver", "f_gap", "grad_norm", "block", "beta", "a", "A",
              "tau", "bound_aam_main", "bound_am_linear", "wall_ms"]

GAP_FLOOR = -1e-12

MIN_ROWS = 5  # a certificate result with fewer rows is vacuous

# the instance constants verify reads, as InstanceInfo.constants() gives them
CONSTANTS = ("n_blocks", "f_star", "radius", "l_global", "l_blocks", "mu_blocks",
             "mu_true", "sublevel_radius")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if not isinstance(cfg.get("instance"), dict):
        raise ConfigError("config needs an 'instance' object")
    solvers = cfg.get("solvers", [])
    if not solvers or not isinstance(solvers, list):
        raise ConfigError("config needs a non-empty 'solvers' list")
    if not all(isinstance(s, dict) for s in solvers):
        raise ConfigError("every solver entry must be a JSON object")
    if not all(isinstance(s.get(key, ""), str) for s in solvers for key in ("name", "method")):
        raise ConfigError("solver name and method must be strings")
    names = [s.get("name", s.get("method")) for s in solvers]
    if len(set(names)) != len(names):
        raise ConfigError("solver names must be unique")
    kinds = cfg.get("certificates", [])
    if not isinstance(kinds, list) or not all(isinstance(k, str) for k in kinds):
        raise ConfigError("'certificates' must be a list of strings")
    return cfg


def _integer(spec: dict, key: str, default: int) -> int:
    """An integral config value; a bool, a string, 8.9 or an infinity is
    rejected, never truncated."""
    value = spec.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not float(value).is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _finite(spec: dict, key: str, default: float) -> float:
    """A real instance argument; NaN and infinities are rejected."""
    value = float(spec.get(key, default))
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


def _point_box(spec: dict) -> bool:
    """Whether a composite spec has a box block whose box is a single point;
    total on any JSON value, as the spec of a recorded summary is not rebuilt."""
    kinds, bounds = spec.get("kinds"), spec.get("box_bounds")
    return (spec.get("kind") == "composite" and isinstance(kinds, list) and "box" in kinds
            and isinstance(bounds, list) and len(bounds) == 2 and bounds[0] == bounds[1])


class InstanceInfo:
    """Resolved problem plus the constants certificates need; None means unknown.
    Given ``constants``, as ``constants()`` returns them, it builds no problem.
    ``point_box`` is read from the spec on both paths, so it is no constant."""

    # the keys each instance kind accepts besides "kind"
    KEYS = {
        "quadratic": {"seed", "dim", "cond_number"},
        "rank_deficient": {"seed", "dim", "rank"},
        "composite": {"seed", "dim", "gamma", "kinds", "box_bounds", "cond_number"},
        "nonlinear_pl": {"seed", "n", "m", "eps"},
    }

    def __init__(self, spec: dict, constants: dict | None = None):
        self.point_box = _point_box(spec)
        if constants is not None:
            self.problem = self.handle = self.x0 = None
            vars(self).update(constants)
            return
        kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in self.KEYS:
            raise ConfigError(f"unknown instance kind {kind!r}")
        unknown = set(spec) - self.KEYS[kind] - {"kind"}
        if unknown:
            raise ConfigError(f"unknown {kind} instance key(s): {sorted(unknown)}")
        # a bad argument is an input error; an optimum that fails its
        # certified gap bound (SolverError) stays a solver failure
        try:
            seed = _integer(spec, "seed", 0)
            if kind == "quadratic":
                prob = make_quadratic(seed, _integer(spec, "dim", 32),
                                      _finite(spec, "cond_number", 100.0))
            elif kind == "rank_deficient":
                dim = _integer(spec, "dim", 32)
                prob = make_rank_deficient(seed, dim, _integer(spec, "rank", dim * 3 // 4))
            elif kind == "composite":
                prob = make_composite(seed, _integer(spec, "dim", 32),
                                      _finite(spec, "gamma", 0.5),
                                      kinds=tuple(spec.get("kinds", ("l1", "zero"))),
                                      box_bounds=tuple(spec.get("box_bounds", (-0.5, 0.5))),
                                      cond_number=_finite(spec, "cond_number", 50.0))
            else:
                prob = make_nonlinear_pl(seed, _integer(spec, "n", 20),
                                         _integer(spec, "m", 10),
                                         eps=_finite(spec, "eps", 0.25))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad {kind} instance: {exc}") from exc
        self.problem = prob
        self.handle = h = prob.handle()
        self.x0 = np.asarray(prob.default_start, dtype=float)
        self.n_blocks = h.n_blocks
        x_opt, self.f_star = h.optimum
        self.radius = float(np.linalg.norm(self.x0 - x_opt))
        self.l_global = h.l_global
        self.l_blocks = h.l_blocks
        self.mu_blocks = h.mu_blocks if h.mu_blocks and min(h.mu_blocks) > 0 else None
        # strong convexity implies PL with the same modulus
        mu_true = getattr(prob, "pl_constant", h.mu_global)
        self.mu_true = mu_true if mu_true and mu_true > 0 else None
        self.sublevel_radius = (prob.sublevel_radius(self.x0)
                                if hasattr(prob, "sublevel_radius") else None)

    def constants(self) -> dict:
        """The constants as JSON values; a float's repr round-trips exactly."""
        def plain(v):
            if isinstance(v, (tuple, list)):
                return [float(x) for x in v]
            return v if v is None or isinstance(v, int) else float(v)
        return {key: plain(getattr(self, key)) for key in CONSTANTS}

    def resolve_mu(self, raw) -> float:
        if raw in ("optimal", "true"):
            if not self.mu_true:
                raise ConfigError("instance has no strong convexity constant to resolve")
            return float(self.mu_true)
        return float(raw)

    def resolve_l(self, raw):
        if raw is None:
            return None
        if raw in ("optimal", "true"):
            if self.l_global is None:
                raise ConfigError("instance has no smoothness constant to resolve")
            return float(self.l_global)
        return float(raw)


def _solver_config(entry: dict, info: InstanceInfo) -> SolverConfig:
    known = {"name", "method", "max_iters", "target_gap", "grad_tolerance",
             "mu_assumed", "l_known"}
    unknown = set(entry) - known
    if unknown:
        raise ConfigError(f"unknown solver option(s): {sorted(unknown)}")
    try:
        return SolverConfig(
            max_iters=_integer(entry, "max_iters", 100),
            target_gap=None if entry.get("target_gap") is None
            else float(entry["target_gap"]),
            grad_tolerance=float(entry.get("grad_tolerance", 1e-13)),
            mu_assumed=info.resolve_mu(entry.get("mu_assumed", 0.0)),
            l_known=info.resolve_l(entry.get("l_known")))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver options: {exc}") from exc


def _run_one(method: str, info: InstanceInfo, cfg: SolverConfig) -> SolverTrace:
    if method == "am":
        return run_am(info.handle, info.x0, cfg)
    if method == "aam":
        return run_aam(info.handle, info.x0, cfg)
    if method == "fgm":
        return run_fgm(info.handle, info.x0, cfg)
    raise ConfigError(f"unknown solver method {method!r}")


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------

def _bound_columns(method: str, trace: SolverTrace, info: InstanceInfo, cfg: SolverConfig):
    """(bound_aam_main, bound_am_linear) per record of one run: None where the bound
    says nothing at k, or where verify would not check its certificate on the run."""
    def checked(kind):
        cert = certs.CERTIFICATES[kind]
        return cert.method == method and _unchecked(cert, info, cfg)[0] is None

    main = checked("aam_main")
    factor = (certs.am_linear_factor(info.l_blocks, info.mu_blocks)
              if checked("am_linear_pl") else None)
    gap0, n = trace.records[0].composite_value - info.f_star, info.n_blocks
    for r in trace.records:
        yield (certs.aam_main_bound(r.k, info.l_global, cfg.mu_assumed, n, info.radius)
               if main and r.k >= 1 else None,
               gap0 * factor ** (r.k // n)
               if factor is not None and r.k >= 1 and r.k % n == 0 else None)


def trace_csv_text(runs, info: InstanceInfo, record_wall: bool) -> str:
    rows = []
    for name, method, cfg, trace in runs:
        for rec, (bound_main, bound_linear) in zip(trace.records,
                                                   _bound_columns(method, trace, info, cfg)):
            gap = rec.composite_value - info.f_star
            rows.append([
                rec.k, name, _fmt(gap), _fmt(rec.grad_norm),
                "" if rec.block is None else str(rec.block),
                _fmt(rec.beta), _fmt(rec.a), _fmt(rec.a_sum), _fmt(rec.tau),
                _fmt(bound_main), _fmt(bound_linear),
                _fmt(rec.wall_time * 1e3 if record_wall else 0.0)])
    rows.sort(key=lambda r: (r[1], r[0]))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([str(r[0])] + [str(c) for c in r[1:]])
    return buf.getvalue()


def write_trace_csv(path, text: str):
    """Write the trace text as the exact bytes ``trace_sha256`` digests."""
    Path(path).write_bytes(text.encode("utf-8"))


def read_trace_csv(path) -> dict[str, list[dict]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_HEADER:
                raise TraceParseError(f"unexpected trace header {header!r}")
            per_solver: dict[str, list[dict]] = {}
            for line in reader:
                if len(line) != len(CSV_HEADER):
                    raise TraceParseError(f"malformed row: {line!r}")
                row = dict(zip(CSV_HEADER, line))
                try:
                    parsed = {
                        "k": int(row["k"]),
                        "f_gap": float(row["f_gap"]),
                        "grad_norm": float(row["grad_norm"]),
                        "block": int(row["block"]) if row["block"] else None,
                        "beta": float(row["beta"]) if row["beta"] else None,
                        "a": float(row["a"]) if row["a"] else None,
                        "A": float(row["A"]) if row["A"] else None,
                        "tau": float(row["tau"]) if row["tau"] else None,
                    }
                except ValueError as exc:
                    raise TraceParseError(f"non-numeric field in row {row!r}") from exc
                if not all(math.isfinite(v) for v in parsed.values() if isinstance(v, float)):
                    raise TraceParseError(f"non-finite field in row {row!r}")
                per_solver.setdefault(row["solver"], []).append(parsed)
    except OSError as exc:
        raise TraceParseError(f"cannot read trace {path}: {exc}") from exc
    for name, rows in per_solver.items():
        rows.sort(key=lambda r: r["k"])
        if [r["k"] for r in rows] != list(range(len(rows))):
            raise TraceParseError(f"rows of solver {name!r} are not k = 0, 1, 2, ...")
    return per_solver


def _trace_from_rows(rows: list[dict], method: str, info: InstanceInfo) -> SolverTrace:
    """The run's trace; TraceParseError where a row at k >= 1 lacks a cell a
    certificate reads: an AM block in [0, n), an AAM a > 0 and A > 0."""
    for r in rows[1:]:
        if method == "am" and r["block"] not in range(info.n_blocks):
            raise TraceParseError(f"row k = {r['k']} of an am run has no block in "
                                  f"[0, {info.n_blocks})")
        if method == "aam" and not min(r["a"] or 0.0, r["A"] or 0.0) > 0.0:
            raise TraceParseError(f"row k = {r['k']} of an aam run needs a > 0 and A > 0")
    records = [IterationRecord(
        k=r["k"], x=None, composite_value=r["f_gap"] + info.f_star,
        grad_norm=r["grad_norm"], block=r["block"], beta=r["beta"],
        a=r["a"], a_sum=r["A"], tau=r["tau"]) for r in rows]
    return SolverTrace(method, records, "from_csv", info.n_blocks)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _json_text(obj, what: str) -> str:
    """obj as JSON text; a NaN or infinity in it is a failure, never written."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, default=float, allow_nan=False)
    except ValueError as exc:
        raise SolverError(f"{what} has a non-finite value: {exc}") from exc


def cmd_run(config_path, out_dir) -> int:
    cfg = load_config(config_path)
    info = InstanceInfo(cfg["instance"])
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output path {out} is not writable: {exc}") from exc
    runs = []
    for entry in cfg["solvers"]:
        method = entry.get("method", entry.get("name"))
        name = entry.get("name", method)
        scfg = _solver_config(entry, info)
        trace = _run_one(method, info, scfg)
        runs.append((name, method, scfg, trace))
    summary = {
        "instance": cfg["instance"],
        "runs": [{
            "solver": name,
            "method": method,
            "final_gap": trace.final.composite_value - info.f_star,
            "iterations": trace.final.k,
            "status": trace.status,
            "wall_ms": trace.final.wall_time * 1e3,
        } for name, method, _, trace in runs],
    }
    trace_text = trace_csv_text(runs, info, bool(cfg.get("record_wall", False)))
    summary["constants"] = info.constants()
    summary["trace_sha256"] = hashlib.sha256(trace_text.encode("utf-8")).hexdigest()
    text = _json_text(summary, "summary")  # refused before either file is written
    write_trace_csv(out / "trace.csv", trace_text)
    (out / "summary.json").write_text(text + "\n", encoding="utf-8")
    print(f"wrote {out / 'trace.csv'} and {out / 'summary.json'}")
    return 0


def recorded_constants(trace_path, spec: dict) -> dict | None:
    """The constants in the summary.json beside the trace; None (rebuild the
    instance) unless ``run`` wrote it for this instance object and these exact
    trace bytes, with every constant a finite float, null where the instance
    may lack it, and each per-block list n_blocks long. Each must also lie in
    the range ``run`` writes, where the certificates raise outside it: L, every
    L_i and mu_true positive, every mu_i in (0, L_i] and both radii >= 0."""
    trace = Path(trace_path)
    try:
        summary = json.loads((trace.parent / "summary.json").read_text(encoding="utf-8"))
        same_run = (isinstance(summary, dict)
                    and json.dumps(summary.get("instance"), sort_keys=True)
                    == json.dumps(spec, sort_keys=True)
                    and summary.get("trace_sha256")
                    == hashlib.sha256(trace.read_bytes()).hexdigest())
    except (OSError, ValueError, RecursionError):
        return None
    found = summary.get("constants") if same_run else None
    if not isinstance(found, dict) or set(found) != set(CONSTANTS):
        return None
    n = found["n_blocks"]

    def real(v, nullable=True):
        return (v is None and nullable) or (type(v) is float and math.isfinite(v))

    ok = (type(n) is int and n >= 1 and real(found["f_star"], False)
          and real(found["radius"], False)
          and all(real(found[key]) for key in ("l_global", "mu_true", "sublevel_radius"))
          and all(found[key] is None or (type(found[key]) is list and len(found[key]) == n
                                         and all(real(v, False) for v in found[key]))
                  for key in ("l_blocks", "mu_blocks")))
    if not ok:
        return None
    l_blocks, mu_blocks = found["l_blocks"], found["mu_blocks"]
    in_range = (found["radius"] >= 0.0 and (found["sublevel_radius"] or 0.0) >= 0.0
                and all(v is None or v > 0.0
                        for v in (found["l_global"], found["mu_true"], *(l_blocks or ())))
                and (mu_blocks is None or l_blocks is not None
                     and all(0.0 < m <= li for m, li in zip(mu_blocks, l_blocks))))
    return found if in_range else None


def _unchecked(cert: certs.Certificate, info: InstanceInfo, run: SolverConfig):
    """(why verify does not check cert on a run, whether that counts as a skip),
    or (None, False) when it does; a run cert does not apply to is not counted."""
    if cert.from_csv is None:
        return "needs full iterate vectors (library-level only)", True
    not_applicable = cert.applies(info, run)
    if not_applicable is not None:
        return not_applicable, False
    missing = [c for c in cert.constants if getattr(info, c) is None]
    return (f"missing constants: {', '.join(missing)}", True) if missing else (None, False)


def cmd_verify(trace_path, config_path, strict: bool = False) -> int:
    cfg = load_config(config_path)
    requested = cfg.get("certificates", [])
    for kind in requested:
        if kind not in certs.CERTIFICATES:
            raise ConfigError(f"unknown certificate kind {kind!r}")
    constants = recorded_constants(trace_path, cfg["instance"])
    info = InstanceInfo(cfg["instance"], constants)
    per_solver = read_trace_csv(trace_path)
    results = []
    violations = 0
    skipped = 0
    vacuous = 0
    for entry in cfg["solvers"]:
        method = entry.get("method", entry.get("name"))
        name = entry.get("name", method)
        if name not in per_solver:
            raise TraceParseError(f"trace has no rows for solver {name!r}")
        rows = per_solver[name]
        trace = _trace_from_rows(rows, method, info)
        run = _solver_config(entry, info)  # only AAM checks read it
        # built-in sanity certificate: gaps never dip below the floor
        bad = [r["k"] for r in rows if r["f_gap"] < GAP_FLOOR * (1.0 + abs(info.f_star))]
        results.append({"certificate": "gap_nonnegative", "solver": name,
                        "passed": not bad,
                        "first_failure_k": bad[0] if bad else None,
                        "worst_slack": min((r["f_gap"] for r in rows), default=0.0)})
        if bad:
            violations += 1
        for kind in requested:
            cert = certs.CERTIFICATES[kind]
            if cert.method != method:
                continue  # certificate simply targets another solver
            reason, counted = _unchecked(cert, info, run)
            if reason is not None:
                results.append({"certificate": kind, "solver": name, "skipped": reason})
                skipped += counted
                continue
            report = cert.from_csv(trace, info, run)
            results.append({
                "certificate": kind, "solver": name, "passed": report.passed,
                "worst_slack": report.worst_slack,
                "first_failure_k": report.first_failure,
                "rows": len(report.rows), "warnings": report.n_warnings})
            if len(report.rows) < MIN_ROWS:
                results[-1]["vacuous"] = True
                vacuous += 1
            if not report.passed:
                violations += 1
    report = {"trace": str(trace_path), "violations": violations,
              "skipped": skipped, "results": results,
              "constants_from": "rebuild" if constants is None else "summary"}
    print(_json_text(report, "verify report"))
    if violations or (strict and (skipped or vacuous)):
        return 1
    return 0


def cmd_figure(config_path, out_path) -> int:
    cfg = load_config(config_path)
    inst = cfg["instance"]
    if inst.get("kind") not in ("quadratic",):
        raise ConfigError("figure needs a quadratic instance")
    info = InstanceInfo(inst)
    try:
        iters = _integer(cfg, "figure_iters", 200)
    except ValueError as exc:
        raise ConfigError(f"bad figure options: {exc}") from exc
    base = {"max_iters": iters}
    methods = [
        ("am", "am", dict(base)),
        ("aam_mu0", "aam", dict(base, mu_assumed=0.0)),
        ("aam_mu_star", "aam", dict(base, mu_assumed="optimal")),
        ("fgm", "fgm", dict(base, l_known="optimal")),
    ]
    columns: dict[str, list[float]] = {}
    for name, method, entry in methods:
        scfg = _solver_config(entry, info)
        trace = _run_one(method, info, scfg)
        gaps = [r.composite_value - info.f_star for r in trace.records]
        gaps += [gaps[-1]] * (iters + 1 - len(gaps))  # pad early-stopped runs
        columns[name] = gaps
    out = Path(out_path)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "am", "aam_mu0", "aam_mu_star", "fgm"])
            for k in range(iters + 1):
                writer.writerow([str(k)] + [_fmt(columns[n][k])
                                            for n in ("am", "aam_mu0", "aam_mu_star", "fgm")])
    except OSError as exc:
        raise ConfigError(f"cannot write figure data to {out}: {exc}") from exc
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache  # built once per process: a build costs more than a parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blockmin",
                                     description="block-structured solver benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run configured solvers, write trace + summary")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True, help="output directory")
    p_ver = sub.add_parser("verify", help="check certificates against a trace CSV")
    p_ver.add_argument("--trace", required=True)
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--strict", action="store_true",
                       help="treat skipped or vacuous certificates as failures")
    p_fig = sub.add_parser("figure", help="write the four-method comparison data")
    p_fig.add_argument("--config", required=True)
    p_fig.add_argument("--out", required=True, help="output CSV file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out)
        if args.command == "verify":
            return cmd_verify(args.trace, args.config, strict=args.strict)
        if args.command == "figure":
            return cmd_figure(args.config, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, TraceParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlockminError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
