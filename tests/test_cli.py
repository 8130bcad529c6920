import csv
import hashlib
import json
import os
import shutil
from pathlib import Path

import pytest

from blockmin import certificates as certs
from blockmin import cli, problems
from blockmin.cli import _json_text, main
from blockmin.errors import SolverError

SHIPPED = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))


def base_config(tmp_path, **overrides):
    cfg = {
        "instance": {"kind": "quadratic", "seed": 42, "dim": 64, "cond_number": 150.0},
        "solvers": [
            {"name": "am", "method": "am", "max_iters": 60},
            {"name": "aam0", "method": "aam", "max_iters": 60, "mu_assumed": 0.0},
            {"name": "fgm", "method": "fgm", "max_iters": 60, "l_known": "optimal"},
        ],
        "certificates": ["am_linear_pl", "aam_main", "aam_Ak_growth", "aam_adaptive"],
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_three_solver_sections(self, tmp_path):
        cfg_path, _ = base_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = read_rows(out / "trace.csv")
        solvers = {r["solver"] for r in rows}
        assert solvers == {"am", "aam0", "fgm"}
        summary = json.loads((out / "summary.json").read_text())
        assert {r["solver"] for r in summary["runs"]} == solvers
        assert all(r["final_gap"] >= -1e-12 for r in summary["runs"])

    def test_rows_sorted_and_gap_floor(self, tmp_path):
        cfg_path, _ = base_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        rows = read_rows(out / "trace.csv")
        keys = [(r["solver"], int(r["k"])) for r in rows]
        assert keys == sorted(keys)
        assert all(float(r["f_gap"]) >= -1e-12 for r in rows)

    def test_empty_solver_list_rejected(self, tmp_path):
        cfg_path, _ = base_config(tmp_path, solvers=[])
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2

    def test_unwritable_output_named(self, tmp_path, capsys):
        cfg_path, _ = base_config(tmp_path)
        bad = tmp_path / "occupied"
        bad.write_text("a file, not a directory")
        assert main(["run", "--config", str(cfg_path), "--out", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path, _ = base_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", str(cfg_path), "--out", str(out1)])
        main(["run", "--config", str(cfg_path), "--out", str(out2)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_rerun_writes_new_files(self, tmp_path, capsys):
        # a re-run unlinks the old outputs and creates new ones: a handle held
        # on the old trace keeps its bytes, and verify reads the new summary
        cfg_path = next(p for p in SHIPPED if p.stem == "quadratic")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "trace.csv", "rb") as held:
            first = held.read()
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            assert os.fstat(held.fileno()).st_nlink == 0
            held.seek(0)
            assert held.read() == first
        assert (hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
                == hashlib.sha256(first).hexdigest())
        code, report = verify_report(out / "trace.csv", cfg_path, capsys, "--strict")
        assert (code, report["constants_from"]) == (0, "summary")

    def test_symlinked_output_is_replaced_not_followed(self, tmp_path):
        cfg_path, _ = base_config(tmp_path)
        out, target = tmp_path / "out", tmp_path / "elsewhere.csv"
        out.mkdir()
        target.write_text("kept")
        (out / "trace.csv").symlink_to(target)
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert not (out / "trace.csv").is_symlink() and target.read_text() == "kept"

    @pytest.mark.parametrize("occupied", ["trace.csv", "summary.json"])
    def test_failed_output_write_exits_2(self, tmp_path, capsys, occupied):
        cfg_path, _ = base_config(tmp_path)
        out = tmp_path / "out"
        (out / occupied).mkdir(parents=True)
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write run output to {out}: ")
        assert "Traceback" not in err

    def test_bad_config_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        # a solver option no solver reads is rejected, not ignored, and so is
        # the former option momentum_rule
        capsys.readouterr()
        for key, value in (("rng_seed", 0), ("momentum_rule", "proof")):
            solvers = [{"name": "am", "method": "am", "max_iters": 5, key: value}]
            cfg_path, _ = base_config(tmp_path, solvers=solvers)
            assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
            assert f"unknown solver option(s): ['{key}']" in capsys.readouterr().err
        # arguments a problem constructor rejects are input errors, NaN included
        nan = float("nan")
        for instance in ({"kind": "quadratic", "dim": 7},
                         {"kind": "quadratic", "dim": "abc"},
                         {"kind": "quadratic", "dim": 8, "cond_number": nan},
                         # W^T W would overflow: a warning, and a traceback under -W error
                         {"kind": "quadratic", "dim": 8, "cond_number": 1e308},
                         {"kind": "composite", "dim": 8, "cond_number": 1e308},
                         # from 1e10 on, W^T W is rank deficient to the build's
                         # rank test: no composite optimum can be certified, and
                         # a quadratic would have mu_global = 0
                         {"kind": "composite", "seed": 2, "dim": 8, "gamma": 0.3,
                          "kinds": ["l1", "box"], "cond_number": 1e12},
                         {"kind": "quadratic", "seed": 0, "dim": 8, "cond_number": 1e11},
                         {"kind": "nonlinear_pl", "n": 7, "m": 3},
                         {"kind": "composite", "dim": 8, "kinds": ["l2", "zero"]},
                         {"kind": "composite", "dim": 8, "kinds": ["l1"]},
                         {"kind": "composite", "dim": 8, "cond_number": nan},
                         {"kind": "composite", "dim": 8, "gamma": -1},
                         {"kind": "composite", "dim": 8, "gamma": nan},
                         {"kind": "composite", "dim": 8, "kinds": ["box", "zero"],
                          "box_bounds": [0.5, -0.5]},
                         {"kind": "composite", "dim": 8, "kinds": ["box", "zero"],
                          "box_bounds": [nan, 0.5]},
                         # integer arguments are checked, not truncated
                         {"kind": "quadratic", "dim": 8.9},
                         {"kind": "quadratic", "dim": 8, "seed": True},
                         {"kind": "rank_deficient", "dim": 16, "rank": 12.5}):
            cfg_path, _ = base_config(tmp_path, instance=instance)
            assert main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 2, instance
            assert "error: bad" in capsys.readouterr().err
        # an instance key the kind does not take is rejected, not ignored
        cfg_path, _ = base_config(tmp_path, instance={"kind": "quadratic", "dimm": 8})
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "unknown quadratic instance key(s): ['dimm']" in capsys.readouterr().err
        cfg_path, _ = base_config(tmp_path, instance="quadratic")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        # a solver entry that is not an object, or an unconvertible option
        for solvers in (["am"],
                        [{"name": "am", "method": "am", "target_gap": [1e-3]}],
                        [{"name": "am", "method": "am", "target_gap": "abc"}]):
            cfg_path, _ = base_config(tmp_path, solvers=solvers)
            assert main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 2, solvers
        # max_iters is an integer, checked, never truncated or overflowed
        for max_iters in (float("inf"), 2.7, "5", True):
            solvers = [{"name": "am", "method": "am", "max_iters": max_iters}]
            cfg_path, _ = base_config(tmp_path, solvers=solvers)
            capsys.readouterr()
            assert main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 2, max_iters
            assert "max_iters must be an integer" in capsys.readouterr().err
        # a solver name or method that is not a string is an input error for
        # every command
        for entry in ({"name": ["am"], "method": "am"}, {"name": "am", "method": ["am"]},
                      {"method": 1}):
            cfg_path, _ = base_config(tmp_path, solvers=[dict(entry, max_iters=5)])
            capsys.readouterr()
            for argv in (["run", "--out", str(tmp_path / "o")],
                         ["verify", "--trace", str(tmp_path / "no_trace.csv")],
                         ["figure", "--out", str(tmp_path / "f.csv")]):
                assert main(argv + ["--config", str(cfg_path)]) == 2, (entry, argv[0])
                assert "solver name and method must be strings" in capsys.readouterr().err
        # an out-of-range or unconvertible option is an input error for run
        # and for verify alike, NaN included
        out = tmp_path / "good"
        good_path, _ = base_config(tmp_path)
        assert main(["run", "--config", str(good_path), "--out", str(out)]) == 0
        for option in ({"mu_assumed": "abc"}, {"mu_assumed": nan}, {"l_known": nan},
                       {"mu_assumed": 2.0, "l_known": 1.0}):
            solvers = [{"name": "aam0", "method": "aam", "max_iters": 5, **option}]
            cfg_path, _ = base_config(tmp_path, solvers=solvers)
            capsys.readouterr()
            assert main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 2, option
            assert main(["verify", "--trace", str(out / "trace.csv"),
                         "--config", str(cfg_path)]) == 2, option
            assert "error: bad solver options" in capsys.readouterr().err


class TestVerify:
    @pytest.fixture()
    def run_outputs(self, tmp_path):
        cfg_path, _ = base_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        return cfg_path, out / "trace.csv"

    def test_clean_trace_passes(self, run_outputs, capsys):
        cfg_path, trace = run_outputs
        assert main(["verify", "--trace", str(trace), "--config", str(cfg_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == 0
        checked = {(r["certificate"], r["solver"]) for r in report["results"]
                   if "passed" in r}
        assert ("am_linear_pl", "am") in checked
        assert ("aam_main", "aam0") in checked

    def test_corrupted_row_detected(self, run_outputs, capsys):
        cfg_path, trace = run_outputs
        lines = trace.read_text().splitlines()
        # inflate one mid-trace aam0 gap so the accelerated bound breaks
        for idx, line in enumerate(lines):
            cells = line.split(",")
            if cells[1] == "aam0" and cells[0] == "40":
                cells[2] = "1e300"
                lines[idx] = ",".join(cells)
                break
        corrupted = trace.parent / "corrupted.csv"
        corrupted.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--trace", str(corrupted), "--config", str(cfg_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        failures = [r for r in report["results"] if r.get("passed") is False]
        assert failures
        assert any(r.get("first_failure_k") == 40 for r in failures)

    def test_skipped_certificate_exit_codes(self, tmp_path, capsys):
        # rank-deficient instance has no positive strong convexity: the
        # am_linear_pl certificate must be skipped, not failed
        cfg = {
            "instance": {"kind": "rank_deficient", "seed": 5, "dim": 16, "rank": 12},
            "solvers": [{"name": "am", "method": "am", "max_iters": 40}],
            "certificates": ["am_linear_pl", "am_sublinear"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()  # drain the run command's output
        trace = out / "trace.csv"
        assert main(["verify", "--trace", str(trace), "--config", str(cfg_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        skipped = [r for r in report["results"] if "skipped" in r]
        assert any(r["certificate"] == "am_linear_pl"
                   and r["skipped"] == "missing constants: mu_blocks" for r in skipped)
        assert main(["verify", "--trace", str(trace), "--config", str(cfg_path),
                     "--strict"]) == 1

    def test_vector_certificates_marked_skipped(self, tmp_path, capsys):
        cfg = {
            "instance": {"kind": "quadratic", "seed": 3, "dim": 16, "cond_number": 100.0},
            "solvers": [{"name": "am", "method": "am", "max_iters": 30},
                        {"name": "aam0", "method": "aam", "max_iters": 30}],
            "certificates": ["aam_recurrence", "sufficient_decrease", "prox_pl", "aam_main"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        code = main(["verify", "--trace", str(out / "trace.csv"),
                     "--config", str(cfg_path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        skipped = {r["certificate"] for r in report["results"] if "skipped" in r}
        assert {"aam_recurrence", "sufficient_decrease", "prox_pl"} <= skipped
        ran = {r["certificate"] for r in report["results"] if "passed" in r}
        assert "aam_main" in ran

    def test_vector_certificate_skipped_only_for_its_method(self, tmp_path, capsys):
        cfg = {
            "instance": {"kind": "quadratic", "seed": 3, "dim": 16, "cond_number": 100.0},
            "solvers": [{"name": "am", "method": "am", "max_iters": 30},
                        {"name": "aam0", "method": "aam", "max_iters": 30}],
            "certificates": ["aam_recurrence", "am_linear_pl"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", "--trace", str(out / "trace.csv"),
                     "--config", str(cfg_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["skipped"] == 1
        skipped = [(r["certificate"], r["solver"]) for r in report["results"]
                   if "skipped" in r]
        assert skipped == [("aam_recurrence", "aam0")]

    # ids [False] and [True] are the adaptive rule
    @pytest.mark.parametrize("strict, rule", [
        pytest.param(strict, rule, id=f"{name}{strict}")
        for name, rule in (("", {}), ("known_l-", {"l_known": 1e9})) for strict in (False, True)])
    def test_mu_assumed_at_least_n_l_is_not_applicable(self, tmp_path, capsys, strict, rule):
        # n L = 400 here: the factor 1 - sqrt(mu / (n L)) of aam_main and
        # aam_Ak_growth leaves [0, 1), so neither verify nor the trace's
        # bound_aam_main column may use it
        cfg = {
            "instance": {"kind": "quadratic", "seed": 0, "dim": 16, "cond_number": 100.0},
            "solvers": [{"name": "aam", "method": "aam", "max_iters": 50, "mu_assumed": 1e9,
                         **rule}],
            "certificates": ["aam_main", "aam_Ak_growth"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = read_rows(out / "trace.csv")
        # the known-L rule runs all 50 iterations; the adaptive one stops at k = 0
        assert len(rows) == (51 if rule else 1)
        assert all(r["bound_aam_main"] == "" for r in rows)
        assert main(["verify", "--trace", str(out / "trace.csv"), "--config", str(cfg_path)]
                    + ["--strict"] * strict) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["skipped"], report["violations"]) == (0, 0)
        assert report["results"][1:] == [
            {"certificate": kind, "solver": "aam",
             "skipped": "applies to mu_assumed < n L runs only"}
            for kind in ("aam_main", "aam_Ak_growth")]

    def test_point_box_is_not_applicable(self, tmp_path, capsys):
        # the box block cannot move, so its proximal-PL inequality fails
        # whenever F > F*: checked anyway, nearly_pl_combined fails at k = 1
        cfg = {
            "instance": {"kind": "composite", "seed": 6, "dim": 12, "gamma": 0.4,
                         "kinds": ["box", "l1"], "box_bounds": [0.0, 0.0]},
            "solvers": [{"name": "am", "method": "am", "max_iters": 2000, "target_gap": 1e-8}],
            "certificates": ["nearly_pl_combined"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        # from the recorded constants, then from a rebuild of the instance
        for strict, source in (([], "summary"), (["--strict"], "summary"),
                               (["--strict"], "rebuild")):
            if source == "rebuild":
                (out / "summary.json").unlink()
            capsys.readouterr()
            assert main(["verify", "--trace", str(out / "trace.csv"),
                         "--config", str(cfg_path), *strict]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["constants_from"] == source
            assert (report["skipped"], report["violations"]) == (0, 0)
            assert report["results"][1:] == [
                {"certificate": "nearly_pl_combined", "solver": "am",
                 "skipped": "does not apply to a block whose box is a single point"}]

    def test_malformed_trace(self, run_outputs, tmp_path, capsys):
        cfg_path, trace = run_outputs
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trace\n")
        assert main(["verify", "--trace", str(bad), "--config", str(cfg_path)]) == 2
        # a NaN gap is an input error, never a pass with a NaN in the report
        lines = trace.read_text().splitlines()
        cells = lines[1].split(",")
        cells[2] = "nan"
        bad.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        capsys.readouterr()
        assert main(["verify", "--trace", str(bad), "--config", str(cfg_path)]) == 2
        assert "non-finite field" in capsys.readouterr().err
        # a well-formed trace with a certificate kind verify does not know
        unknown_path, _ = base_config(tmp_path, certificates=["aam_main", "made_up"])
        capsys.readouterr()
        assert main(["verify", "--trace", str(trace), "--config", str(unknown_path)]) == 2
        assert "unknown certificate kind 'made_up'" in capsys.readouterr().err
        # the kind is checked before the trace is read
        unknown_path, _ = base_config(tmp_path, certificates=["made_up"])
        missing = tmp_path / "no_such_trace.csv"
        assert main(["verify", "--trace", str(missing), "--config", str(unknown_path)]) == 2
        assert "unknown certificate kind 'made_up'" in capsys.readouterr().err
        # a certificate kind that is not a string, or a list that is not one
        for kinds in ([[1]], [{"kind": "aam_main"}], "aam_main", 5):
            bad_path, _ = base_config(tmp_path, certificates=kinds)
            assert main(["verify", "--trace", str(trace), "--config", str(bad_path)]) == 2
            assert "'certificates' must be a list of strings" in capsys.readouterr().err

    def test_rows_must_be_k_0_1_2(self, run_outputs, tmp_path, capsys):
        # run writes each solver's rows as k = 0, 1, 2, ...; a trace whose k
        # column is edited is an input error, never a check at a made-up k
        cfg_path, trace = run_outputs
        lines = trace.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("1,aam0,"))
        bad = tmp_path / "bad.csv"
        for edit in ("100000", "1" + "0" * 400, "2", "-1", "0"):
            edited = lines.copy()
            edited[at] = edit + edited[at][1:]
            bad.write_text("\n".join(edited) + "\n")
            capsys.readouterr()
            assert main(["verify", "--trace", str(bad), "--config", str(cfg_path)]) == 2
            assert "rows of solver 'aam0' are not k = 0, 1, 2, ..." in capsys.readouterr().err
        # a solver whose rows start at k = 1
        bad.write_text("\n".join(lines[:at - 1] + lines[at:]) + "\n")
        assert main(["verify", "--trace", str(bad), "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("solver, column, value", [
        ("am", "block", ""), ("am", "block", "2"), ("am", "block", "-1"),
        ("am", "block", "5"), ("aam0", "a", ""), ("aam0", "a", "0"), ("aam0", "a", "-1"),
        ("aam0", "A", ""), ("aam0", "A", "0"), ("aam0", "A", "-2.5")])
    def test_cells_a_certificate_reads_are_checked(self, run_outputs, tmp_path, capsys,
                                                   solver, column, value):
        # at k >= 1 an AM row needs a block in [0, n), here n = 2, and an AAM
        # row a > 0 and A > 0: an edited cell is an input error, never a
        # traceback or a check that reads another block's L_i
        cfg_path, trace = run_outputs
        lines = trace.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(f"3,{solver},"))
        cells = lines[at].split(",")
        cells[cli.CSV_HEADER.index(column)] = value
        lines[at] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--trace", str(bad), "--config", str(cfg_path)]) == 2
        assert f"row k = 3 of an {solver[:3]} run" in capsys.readouterr().err

    def test_aam_Ak_growth_reads_the_run_l(self, tmp_path, capsys):
        # l_known = 1e4 is 50 times L = 200: A_k grows as k^2 / (4 n l_known),
        # below the k^2 / (4 n L) that the instance's L would demand from k = 1
        cfg = {"instance": {"kind": "quadratic", "seed": 0, "dim": 8, "cond_number": 100.0},
               "solvers": [{"name": "aam", "method": "aam", "max_iters": 40,
                            "mu_assumed": "optimal", "l_known": 1e4,
                            "grad_tolerance": 1e-300}],
               "certificates": ["aam_Ak_growth"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        code, report = verify_report(out / "trace.csv", cfg_path, capsys, "--strict")
        assert code == 0
        (result,) = [r for r in report["results"] if r["certificate"] == "aam_Ak_growth"]
        assert result["passed"] and result["rows"] == 40
        info = cli.InstanceInfo(cfg["instance"])
        trace = cli._trace_from_rows(cli.read_trace_csv(out / "trace.csv")["aam"], "aam", info)
        assert certs.check_aam_Ak(trace, info.l_global, info.mu_true, 2).first_failure == 1

    def test_vacuous_certificates_fail_strict(self, tmp_path, capsys):
        # two AM sweeps and three AAM iterations: every certificate checks
        # fewer than 5 rows, passes, and is flagged
        solvers = [{"name": "am", "method": "am", "max_iters": 4},
                   {"name": "aam0", "method": "aam", "max_iters": 3}]
        cfg_path, _ = base_config(tmp_path, solvers=solvers)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        code, report = verify_report(out / "trace.csv", cfg_path, capsys)
        assert code == 0 and report["violations"] == 0 and report["skipped"] == 0
        ran = [r for r in report["results"] if "rows" in r]
        assert {r["certificate"] for r in ran} == {
            "am_linear_pl", "aam_main", "aam_Ak_growth", "aam_adaptive"}
        assert all(r["rows"] < 5 and r["passed"] and r["vacuous"] is True for r in ran)
        assert verify_report(out / "trace.csv", cfg_path, capsys, "--strict")[0] == 1

    def test_trace_too_short_for_a_certificate_is_vacuous(self, tmp_path, capsys):
        # three AM iterations on two blocks: am_sublinear needs two complete sweeps
        cfg_path, _ = base_config(
            tmp_path, instance={"kind": "quadratic", "seed": 1, "dim": 8},
            solvers=[{"name": "am", "method": "am", "max_iters": 3}],
            certificates=["am_sublinear"])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        code, report = verify_report(out / "trace.csv", cfg_path, capsys)
        assert code == 0 and report["violations"] == 0 and report["skipped"] == 0
        (result,) = [r for r in report["results"] if r["certificate"] == "am_sublinear"]
        assert result["rows"] == 0 and result["passed"] and result["vacuous"] is True
        assert verify_report(out / "trace.csv", cfg_path, capsys, "--strict")[0] == 1


def verify_report(trace, cfg_path, capsys, *extra):
    """(exit code, parsed report) of verify on trace."""
    capsys.readouterr()
    code = main(["verify", "--trace", str(trace), "--config", str(cfg_path), *extra])
    return code, json.loads(capsys.readouterr().out)


def same_checks(a: dict, b: dict) -> bool:
    return all(json.dumps(a[key]) == json.dumps(b[key])
               for key in ("results", "violations", "skipped"))


@pytest.fixture()
def builds(monkeypatch):
    """Names of the instance constructors blockmin.cli calls, in call order."""
    calls = []
    for name in ("make_quadratic", "make_rank_deficient", "make_composite",
                 "make_nonlinear_pl"):
        def counted(*args, _make=getattr(cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _make(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    return calls


class TestRecordedConstants:
    """verify reads the constants run recorded in summary.json only for the
    same instance object and the exact trace bytes; it rebuilds otherwise."""

    def test_summary_and_rebuild_agree_on_every_shipped_config(self, tmp_path, capsys,
                                                                builds):
        for cfg_path in SHIPPED:
            out = tmp_path / cfg_path.stem
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            instance = json.loads(cfg_path.read_text())["instance"]
            # bit for bit the constants of a fresh build
            assert summary["constants"] == cli.InstanceInfo(instance).constants()
            builds.clear()
            code, from_summary = verify_report(out / "trace.csv", cfg_path, capsys,
                                               "--strict")
            assert (code, from_summary["constants_from"], builds) == (0, "summary", [])
            alone = tmp_path / f"{cfg_path.stem}_alone"
            alone.mkdir()
            shutil.copy(out / "trace.csv", alone / "trace.csv")
            code, rebuilt = verify_report(alone / "trace.csv", cfg_path, capsys, "--strict")
            assert (code, rebuilt["constants_from"], len(builds)) == (0, "rebuild", 1)
            assert same_checks(from_summary, rebuilt), cfg_path.name

    def test_each_mismatch_rebuilds_once(self, tmp_path, capsys, builds):
        cfg_path, _ = base_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        _, reference = verify_report(out / "trace.csv", cfg_path, capsys)

        def other_instance(d):
            summary = json.loads((d / "summary.json").read_text())
            summary["instance"]["seed"] += 1
            (d / "summary.json").write_text(json.dumps(summary))

        def one_trace_byte(d):
            data = bytearray((d / "trace.csv").read_bytes())
            assert data[-3:] == b"0\r\n"  # wall_ms of the last row, which no check reads
            data[-3:-2] = b"1"
            (d / "trace.csv").write_bytes(bytes(data))

        def no_summary(d):
            (d / "summary.json").unlink()

        for edit in (other_instance, one_trace_byte, no_summary):
            d = tmp_path / edit.__name__
            shutil.copytree(out, d)
            edit(d)
            builds.clear()
            code, report = verify_report(d / "trace.csv", cfg_path, capsys)
            assert (code, report["constants_from"], len(builds)) == (0, "rebuild", 1), \
                edit.__name__
            assert same_checks(report, reference), edit.__name__

    def test_error_precedence_holds_with_a_summary(self, tmp_path, capsys, builds,
                                                   monkeypatch):
        cfg_path, cfg = base_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        reads = []
        read_trace = cli.read_trace_csv
        monkeypatch.setattr(cli, "read_trace_csv",
                            lambda path: reads.append(path) or read_trace(path))
        builds.clear()
        capsys.readouterr()
        # an unknown certificate kind exits 2 before the trace is read
        unknown_path, _ = base_config(tmp_path, certificates=["aam_main", "made_up"])
        assert main(["verify", "--trace", str(out / "trace.csv"),
                     "--config", str(unknown_path)]) == 2
        assert "unknown certificate kind 'made_up'" in capsys.readouterr().err
        assert (reads, builds) == ([], [])
        # bad solver options exit 2 on the summary path as on a rebuild
        solvers = [dict(cfg["solvers"][1], mu_assumed=2.0, l_known=1.0)]
        bad_path, _ = base_config(tmp_path, solvers=solvers)
        assert main(["verify", "--trace", str(out / "trace.csv"),
                     "--config", str(bad_path)]) == 2
        assert "error: bad solver options" in capsys.readouterr().err
        assert builds == []


def test_json_outputs_refuse_non_finite_values():
    assert _json_text({"gap": 1.5}, "summary") == '{\n  "gap": 1.5\n}'
    with pytest.raises(SolverError, match="summary has a non-finite value"):
        _json_text({"gap": float("nan")}, "summary")


class TestStandardSuite:
    def test_verify_after_run_passes_for_every_shipped_config(self, tmp_path, capsys):
        assert SHIPPED, "shipped config suite is missing"
        for cfg_path in SHIPPED:
            out = tmp_path / cfg_path.stem
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            capsys.readouterr()
            code = main(["verify", "--trace", str(out / "trace.csv"),
                         "--config", str(cfg_path)])
            report = json.loads(capsys.readouterr().out)
            assert code == 0, f"{cfg_path.name} failed verification"
            # a certificate that ran must have checked enough rows to mean something
            for r in report["results"]:
                if "rows" in r:
                    assert r["rows"] >= 5, f"{cfg_path.name}: {r}"
                    assert "vacuous" not in r, f"{cfg_path.name}: {r}"
            # nothing the config asks for is skipped, so strict mode passes too
            assert main(["verify", "--trace", str(out / "trace.csv"),
                         "--config", str(cfg_path), "--strict"]) == 0, cfg_path.name
            capsys.readouterr()

    @pytest.mark.parametrize("instance,method,message", [
        # the nonlinear instance has no L anywhere
        ({"kind": "nonlinear_pl", "seed": 2, "n": 20, "m": 10}, "fgm",
         "fast gradient method needs a known L"),
        # AAM and FGM accept g == 0 only
        ({"kind": "composite", "seed": 3, "dim": 12}, "aam",
         "accelerated solver supports g == 0 only"),
        ({"kind": "composite", "seed": 3, "dim": 12}, "fgm",
         "fast gradient method supports g == 0 only"),
    ], ids=["fgm_without_l", "aam_composite", "fgm_composite"])
    def test_solver_failure_exit_code(self, tmp_path, capsys, instance, method, message):
        # a solver that cannot run the instance: exit 3 and one error line
        cfg = {"instance": instance,
               "solvers": [{"name": method, "method": method, "max_iters": 10}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.splitlines() == [f"solver error: {message}"]


    def test_capped_newton_solve_exit_code(self, tmp_path, monkeypatch, capsys):
        # a Newton block solve stopped by its step cap fails the run: exit 3,
        # one error line and no traceback
        monkeypatch.setattr(problems, "_NEWTON_MAX_STEPS", 1)
        cfg = {
            "instance": {"kind": "nonlinear_pl", "seed": 2, "n": 20, "m": 14},
            "solvers": [{"name": "am", "method": "am", "max_iters": 10}],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("solver error: Newton solve of block")


class TestFigure:
    def test_aam_mu_star_beats_fgm(self, tmp_path):
        cfg = {
            "instance": {"kind": "quadratic", "seed": 1, "dim": 32, "cond_number": 500.0},
            "solvers": [{"name": "am", "method": "am", "max_iters": 10}],
            "figure_iters": 200,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        fig = tmp_path / "fig.csv"
        assert main(["figure", "--config", str(cfg_path), "--out", str(fig)]) == 0
        last = read_rows(fig)[-1]
        assert float(last["aam_mu_star"]) <= float(last["fgm"])

    def test_columns_and_k0(self, tmp_path):
        cfg_path, _ = base_config(tmp_path, figure_iters=50)
        fig = tmp_path / "fig.csv"
        assert main(["figure", "--config", str(cfg_path), "--out", str(fig)]) == 0
        rows = read_rows(fig)
        assert list(rows[0].keys()) == ["k", "am", "aam_mu0", "aam_mu_star", "fgm"]
        assert len(rows) == 51
        first = rows[0]
        gaps = {float(first[c]) for c in ("am", "aam_mu0", "aam_mu_star", "fgm")}
        assert len(gaps) == 1  # all methods start from the same gap

    def test_byte_identical(self, tmp_path):
        cfg_path, _ = base_config(tmp_path, figure_iters=30)
        f1, f2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        main(["figure", "--config", str(cfg_path), "--out", str(f1)])
        main(["figure", "--config", str(cfg_path), "--out", str(f2)])
        assert f1.read_bytes() == f2.read_bytes()

    def test_bad_figure_iters(self, tmp_path, capsys):
        # an integer, checked like max_iters, never truncated
        for iters in ("abc", 2.7, float("inf"), None, -1):
            cfg_path, _ = base_config(tmp_path, figure_iters=iters)
            capsys.readouterr()
            assert main(["figure", "--config", str(cfg_path),
                         "--out", str(tmp_path / "f.csv")]) == 2, iters
            assert "error: bad" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_requires_quadratic(self, tmp_path):
        cfg = {
            "instance": {"kind": "nonlinear_pl", "seed": 2, "n": 20, "m": 10},
            "solvers": [{"name": "am", "method": "am", "max_iters": 10}],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["figure", "--config", str(cfg_path),
                     "--out", str(tmp_path / "f.csv")]) == 2
