"""Benchmark of blockmin end to end: instance build, ``blockmin run``, ``blockmin verify``.

    python3 blockbench/run.py --workload quad_d1024 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The command makes the workload's configs
from ``--seed``, then repeats rounds for ``--seconds`` seconds (a round starts only if a
round of the typical length still fits). A round
builds the instances through the public ``make_*`` constructors (``setup_s``),
calls ``blockmin.cli.main(["run", ...])`` (``run_s``) and
``main(["verify", ...])`` (``verify_s``) in this process for every config, and
checks the outputs against computations made apart from the program. Times
are medians over the rounds; ``peak_rss_mb`` is the process's peak resident
memory. With ``--trace 1`` the public functions of every module are wrapped
in spans and the per-layer metrics (medians over rounds) are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give the machine facts and the per-round samples, which are also written to
``blockbench/out/<workload>/``. Exit code 0 when a result was printed,
non-zero when the program could not be found or imported.

All load comes from this one process, with BLAS limited to one thread: the
thread count alone moves AAM at dim 1024 by almost 2x on a 2-CPU machine, so
it is set here rather than inherited. The allocator is left at its default.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("quad_d1024", "composite_d256", "nonlinear_n200")
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "verify_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time budget of the rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every instance (used by the self-test)")
    return p.parse_args(argv)


def import_program():
    """Import blockmin from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "blockmin" / "__init__.py").is_file():
        raise SystemExit(f"error: no blockmin sources under {src}")
    sys.path.insert(0, str(src))
    import blockmin
    if Path(blockmin.__file__).resolve().parent != (src / "blockmin").resolve():
        raise SystemExit(f"error: imported blockmin from {blockmin.__file__}, not {src}")
    from blockmin import cli
    return cli.main


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library mapped into this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = int(fn())
                break
    return found


def machine_facts() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas": blas_name,
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def call_cli(main, argv: list[str]) -> tuple[int | None, str]:
    """Run the CLI in this process; exit code (None on a traceback) and stdout."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main([str(a) for a in argv])
    except Exception:  # a traceback is a failed operation, not the end of the benchmark
        traceback.print_exc()
        rc = None
    return rc, buf.getvalue()


class Round:
    """Operations and problems found in one round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, found: list[str], where: str):
        self.attempted += 1
        self.problems += [f"{where}: {p}" for p in found]

    def fail(self, count: int):
        self.attempted += count
        self.failed += count


def run_round(workloads, wl, configs, out_dir: Path, refs: dict, main, tracer) -> tuple:
    """One round over every config; returns (samples, Round)."""
    rnd = Round()
    samples = {"setup_s": 0.0, "run_s": 0.0, "verify_s": 0.0}
    for i, cfg in enumerate(configs):
        where = f"config {i} (seed {cfg['instance']['seed']})"
        cfg_path = out_dir / f"config{i}.json"
        run_dir = out_dir / f"run{i}"
        trace_csv = run_dir / "trace.csv"
        solvers = cfg["solvers"]
        must_run, _ = workloads.expected_checks(cfg)
        n_am = sum(s["method"] == "am" for s in solvers)
        t0 = perf_counter()
        prob = workloads.build(cfg["instance"])
        samples["setup_s"] += perf_counter() - t0
        if i in refs:  # the first round leaves this check to check_first_round
            rnd.check(wl.check_instance(prob, refs[i]), where)
        f_star = float(getattr(prob, "f_star", 0.0))  # nonlinear_pl instances have F* = 0
        del prob  # hold no instance of our own while the program runs: peak_rss_mb is its peak
        if tracer is not None:
            tracer.begin_run([s["name"] for s in solvers])
        t0 = perf_counter()
        rc_run, _ = call_cli(main, ["run", "--config", cfg_path, "--out", run_dir])
        samples["run_s"] += perf_counter() - t0
        t0 = perf_counter()
        rc_ver, text = call_cli(main, ["verify", "--trace", trace_csv, "--config", cfg_path])
        samples["verify_s"] += perf_counter() - t0

        if rc_run != 0:
            rnd.problems.append(f"{where}: blockmin run exited {rc_run}")
            rnd.fail(2 * len(solvers) + n_am + len(must_run))
            continue
        rnd.attempted += len(solvers)
        try:
            summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
            by_name = {r["solver"]: r for r in summary["runs"]}
            rows = workloads.read_trace(trace_csv)
        except (OSError, ValueError, KeyError) as exc:
            by_name, rows = {}, {}
            rnd.problems.append(f"{where}: unreadable run output: {exc!r}")
        if tracer is not None and trace_csv.is_file():
            tracer.csv_bytes += trace_csv.stat().st_size
        for s in solvers:
            name = s["name"]
            rnd.check(workloads.check_run(s, by_name.get(name), rows.get(name, [])), where)
            if s["method"] == "am":
                rnd.check(workloads.check_monotone(name, rows.get(name, []), f_star), where)
        if rc_ver not in (0, 1):
            rnd.problems.append(f"{where}: blockmin verify exited {rc_ver}")
            rnd.fail(len(must_run))
            continue
        rnd.attempted += len(must_run)
        try:
            report = json.loads(text)
        except ValueError:
            report = {}
            rnd.problems.append(f"{where}: verify printed no JSON report")
        rnd.problems += [f"{where}: {p}" for p in workloads.check_report(cfg, report)]
    return samples, rnd


def check_first_round(workloads, wl, configs, refs: dict, rnd: Round):
    """Make the independent solves and check the first round's instances.

    Run after the first round's peak memory has been read, so that the
    benchmark's own solves never count in it. The builds are not timed and
    give the same instances as the round's, which are made from the same
    config.
    """
    for i, cfg in enumerate(configs):
        prob = workloads.build(cfg["instance"])
        refs[i] = wl.reference(prob, cfg["instance"])
        rnd.check(wl.check_instance(prob, refs[i]),
                  f"config {i} (seed {cfg['instance']['seed']})")
        del prob


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("BLOCKMIN_OUT_DIR", None)  # it would redirect `run` away from our files
    cli_main = import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    configs = wl.configs(args.seed, args.tiny)
    out_dir = BENCH_DIR / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, cfg in enumerate(configs):
        (out_dir / f"config{i}.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    refs: dict = {}
    samples, layer_rounds = [], []
    attempted = failed = 0
    problems: list[str] = []
    t_start = perf_counter()
    durations: list[float] = []
    try:
        # start a round only if one more round of the typical length still fits
        while not durations or (perf_counter() - t_start
                                + statistics.median(durations) <= args.seconds):
            t_round = perf_counter()
            if tracer is not None:
                tracer.reset()
            sample, rnd = run_round(workloads, wl, configs, out_dir, refs, cli_main, tracer)
            samples.append(sample)
            if tracer is not None:
                layer_rounds.append(tracer.layer_metrics())
            durations.append(perf_counter() - t_round)
            if len(samples) == 1:
                # later rounds repeat the same work; the allocator alone lets
                # the process peak creep up with their number
                first_round_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                check_first_round(workloads, wl, configs, refs, rnd)
            attempted += rnd.attempted
            failed += rnd.failed
            problems += rnd.problems
    finally:
        if tracer is not None:
            tracer.uninstall()

    e2e = {k: statistics.median(s[k] for s in samples) for k in ("setup_s", "run_s", "verify_s")}
    e2e["peak_rss_mb"] = first_round_rss / 1024.0
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        units = tracing.metric_units()
        layer = tracing.median_metrics(layer_rounds)
        metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
    facts = machine_facts()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "rounds": len(samples),
              "facts": facts, "samples": samples, "end_to_end": e2e,
              "problems": problems[:50]}
    if tracer is not None:
        record["layer_rounds"] = layer_rounds
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"rounds {len(samples)} " + json.dumps(
        {k: round(v, 4) for k, v in e2e.items()}, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
