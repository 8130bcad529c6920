"""Reference figures: run the benchmark over several seeds and summarise.

    python3 blockbench/reference.py --seeds 1-10 --traced-seed 1

Runs ``blockbench/run.py`` once per (seed, workload), one process at a time,
for every workload of BENCHMARK.json and with its ``run_seconds``, cycling
through the workloads for each seed so that a slow spell of the host lands on
all of them alike. A seed may be listed more than once (``--seeds 1,1,1``) to
see the spread of repeated runs of the same work. For every end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the bound in BENCHMARK.json, and the share of
failed operations. ``--traced-seed N`` adds four runs per workload on seed
N, untraced, traced, traced and untraced, and reports the per-layer metrics
of the last traced run and the tracing overhead (traced minus untraced
``run_s``, on the means of each side). Everything is also written to
``blockbench/out/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Final JSON object and the untimed-summary line of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    rounds_line = next(ln for ln in lines if ln.startswith("rounds "))
    return json.loads(lines[-1]), json.loads(rounds_line.split(" ", 2)[2])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10",
                   help="a range such as 1-10, or a comma list such as 1,1,1")
    p.add_argument("--traced-seed", type=int, default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {w: [] for w in names}
    for seed in seed_list(args.seeds):
        for w in names:
            result, _ = run_once(w, seed, seconds, 0)
            runs[w].append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    report = {"seconds": seconds, "workloads": {}}
    for w in names:
        entry = {"failed_share": sorted({r["failed"] / r["attempted"] for r in runs[w]}),
                 "all_correct": all(r["correct"] for r in runs[w]), "metrics": {}}
        print(f"\n{w}: failed share {entry['failed_share']}, all correct {entry['all_correct']}")
        print(f"  {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
        for m in bounds:
            s = summarise([r["metrics"][m]["value"] for r in runs[w]])
            entry["metrics"][m] = s
            print(f"  {m:<12} {s['median']:>10.4f} {s['q1']:>10.4f} {s['q3']:>10.4f} "
                  f"{s['spread']:>7.3f} {bounds[m]:>6}")
        if args.traced_seed is not None:
            # untraced, traced, traced, untraced: a slow spell of the host falls on both sides
            run_s = {0: [], 1: []}
            for trace in (0, 1, 1, 0):
                result, e2e = run_once(w, args.traced_seed, seconds, trace)
                run_s[trace].append(e2e["run_s"])
                if trace:
                    traced = result
            base, with_spans = statistics.mean(run_s[0]), statistics.mean(run_s[1])
            entry["tracing_overhead_run_s"] = {"untraced": run_s[0], "traced": run_s[1],
                                               "share": with_spans / base - 1.0}
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            print(f"  tracing overhead on seed {args.traced_seed}: run_s {run_s[0]} s untraced, "
                  f"{run_s[1]} s traced, {with_spans / base - 1.0:+.1%} on the means")
            for k, v in traced["metrics"].items():
                if v["value"]:
                    print(f"  {k:<48} {v['value']:>12.6g} {v['unit']}")
        report["workloads"][w] = entry
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "reference.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
