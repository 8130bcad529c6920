"""Self-test of the benchmark (not part of the package's test suite).

    python3 -m pytest blockbench/selftest -q

Runs every workload at a tiny size through the real command, checks the
output schema against BENCHMARK.json, checks that traced counts repeat and
reproduce the known oracle calls per iteration, and feeds each correctness
check a corrupted input to show that it trips.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SCRATCH = BENCH_DIR / "out" / "selftest"
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402
from blockmin import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT):
    argv = [sys.executable, str(cwd / "blockbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170,
                          check=False)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: last_json(bench(w, 1)) for w in NAMES}


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_output_schema(workload, trace, traced):
    result = traced[workload] if trace else last_json(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_and_match_known_calls(traced):
    again = last_json(bench("quad_d1024", 1))
    first = traced["quad_d1024"]["metrics"]
    counts = {k for k, v in first.items() if v["unit"] in ("count", "calls/iter", "KiB", "MiB")}
    assert counts and all(first[k]["value"] == again["metrics"][k]["value"] for k in counts)
    # block-gradient / value / argmin / line-minimizer calls per iteration
    known = {"am": (2, 2, 1, 0), "aam0": (8, 8, 1, 1), "aam_mu": (8, 8, 1, 1),
             "aam_l": (6, 6, 1, 1), "fgm": (4, 2, 0, 0)}
    for solver, calls in known.items():
        got = tuple(round(first[f"objective.calls_per_iter.{c}.{solver}"]["value"])
                    for c in ("block_gradient", "value", "block_argmin", "line_minimizer"))
        assert got == calls, solver


def test_fails_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "blockbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench(NAMES[0], 0, cwd=bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# ---------------------------------------------------------------------------
# each check trips on a corrupted input
# ---------------------------------------------------------------------------

def run_cli(cfg: dict, name: str, trace_rows: int | None = None):
    """run + verify a config; optionally cut the trace to its first rows."""
    out = SCRATCH / name
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    trace = out / "trace.csv"
    if trace_rows is not None:
        lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
        keep, seen = [lines[0]], {}
        for ln in lines[1:]:
            solver = ln.split(",")[1]
            seen[solver] = seen.get(solver, 0) + 1
            if seen[solver] <= trace_rows:
                keep.append(ln)
        trace.write_text("".join(keep), encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify", "--trace", str(trace), "--config", str(cfg_path)])
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    return rc, json.loads(buf.getvalue()) if rc in (0, 1) else None, \
        workloads.read_trace(trace), {r["solver"]: r for r in summary["runs"]}


@pytest.fixture(scope="module")
def quad_outputs():
    cfg = workloads.quad_configs(3, tiny=True)[0]
    return cfg, workloads.build(cfg["instance"]), run_cli(cfg, "quad")


def test_clean_outputs_pass(quad_outputs):
    cfg, prob, (rc, report, rows, runs) = quad_outputs
    assert rc == 0
    assert workloads.quad_check(prob, workloads.quad_reference(prob, cfg["instance"])) == []
    assert workloads.check_report(cfg, report) == []
    for s in cfg["solvers"]:
        assert workloads.check_run(s, runs[s["name"]], rows[s["name"]]) == []
    assert workloads.check_monotone("am", rows["am"], prob.f_star) == []


@pytest.mark.parametrize("name", NAMES)
def test_fstar_shift_trips(name):
    wl = workloads.WORKLOADS[name]
    cfg = wl.configs(3, True)[0]
    prob = workloads.build(cfg["instance"])
    ref = wl.reference(prob, cfg["instance"])
    assert wl.check_instance(prob, ref) == []
    if name == "nonlinear_n200":
        bad = dataclasses.replace(prob, x_solution=prob.x_solution * (1.0 + 1e-6))
    else:
        bad = dataclasses.replace(prob, f_star=prob.f_star + 1e-6 * max(1.0, abs(prob.f_star)))
    assert wl.check_instance(bad, ref)


def test_one_row_trace_trips():
    cfg = workloads.nonlinear_configs(3, tiny=True)[0]
    rc, report, rows, runs = run_cli(cfg, "one_row", trace_rows=1)
    assert rc == 0  # verify itself passes a certificate that checked nothing
    assert any("checked 0 row(s)" in p for p in workloads.check_report(cfg, report))
    for s in cfg["solvers"]:
        assert workloads.check_run(s, runs[s["name"]], rows[s["name"]])


def test_run_checks_trip(quad_outputs):
    cfg, prob, (_, _, rows, runs) = quad_outputs
    am = cfg["solvers"][0]
    assert workloads.check_run(am, dict(runs["am"], status="max_iters"), rows["am"])
    assert workloads.check_run(am, runs["am"], rows["am"][:-1])  # stops above target
    assert workloads.check_run(am, runs["am"], rows["am"] + [(len(rows["am"]), 0.0)])
    assert workloads.check_run(am, None, rows["am"])
    risen = list(rows["am"])
    risen[5] = (risen[5][0], risen[4][1] * (1.0 + 1e-9) + 1e-9)
    assert workloads.check_monotone("am", risen, prob.f_star)


def test_report_checks_trip(quad_outputs):
    cfg, _, (_, report, _, _) = quad_outputs
    results = report["results"]

    def with_results(new):
        return dict(report, results=new)

    violated = [dict(r, passed=False, first_failure_k=3) if r["certificate"] == "aam_main"
                else r for r in results]
    assert workloads.check_report(cfg, dict(with_results(violated), violations=1))
    dropped = [r for r in results if r["certificate"] != "am_sublinear"]
    assert workloads.check_report(cfg, with_results(dropped))
    skipped = [dict(certificate=r["certificate"], solver=r["solver"], skipped="missing constants")
               if r["certificate"] == "am_linear_pl" else r for r in results]
    assert workloads.check_report(cfg, with_results(skipped))
    short = [dict(r, rows=1) if r["certificate"] == "aam_Ak_growth" else r for r in results]
    assert workloads.check_report(cfg, with_results(short))
