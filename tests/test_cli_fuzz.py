"""Fuzzing of what the CLI reads from outside: the summary.json beside a
trace, and the config fields. Every input ends in exit code 0, 1, 2 or 3,
never in a traceback, and a corrupted summary gives a rebuild's results."""

import contextlib
import io
import json
import math
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmin.cli import main

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# one instance with every constant known, and one without L, L_i and mu_i
BASE_CONFIGS = {
    "quadratic": {
        "instance": {"kind": "quadratic", "seed": 7, "dim": 16, "cond_number": 80.0},
        "solvers": [{"name": "am", "method": "am", "max_iters": 20},
                    {"name": "aam0", "method": "aam", "max_iters": 20}],
        "certificates": ["am_linear_pl", "am_sublinear", "aam_main", "aam_Ak_growth",
                         "aam_adaptive"]},
    "nonlinear_pl": {
        "instance": {"kind": "nonlinear_pl", "seed": 2, "n": 20, "m": 14},
        "solvers": [{"name": "aam0", "method": "aam", "max_iters": 15}],
        "certificates": ["aam_main", "aam_adaptive"]},
}

NON_FINITE = [math.nan, math.inf, -math.inf]
# replacements no summary written by run holds at that place
JUNK = {
    "n_blocks": ["2", True, 2.0, 0, -1, None, [], *NON_FINITE],
    "f_star": ["0.5", True, {}, [], None, 1, *NON_FINITE],
    "radius": ["0.5", False, {}, [1.0], None, 3, -1.0, *NON_FINITE],
    "l_global": ["0.5", True, {}, [1.0], 2, 0.0, -5.0, *NON_FINITE],
    "mu_true": ["0.5", True, {}, [1.0], 2, 0.0, -1.0, *NON_FINITE],
    "sublevel_radius": ["0.5", True, {}, [1.0], 2, -1.0, *NON_FINITE],
    "l_blocks": ["0.5", True, {}, 1.5, 1, [], [1.0], [0.0, 1.0], [-1.0, -1.0],
                 *NON_FINITE],
    "mu_blocks": ["0.5", True, {}, 1.5, 1, [], [1.0], [1e6, 1e6], [0.0, 0.0],
                  [-1.0, 1.0], *NON_FINITE],
}
ROOT_JUNK = {
    "instance": [None, "quadratic", {}, [], 5],
    "trace_sha256": [None, "", "0" * 64, 5, ["a"]],
    "constants": [None, [], "constants", 1.5, {}],
}


def quiet_main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per base config: its path, run directory, summary and rebuild report."""
    found = {}
    for name, cfg in BASE_CONFIGS.items():
        d = tmp_path_factory.mktemp(name)
        cfg_path = d / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert quiet_main(["run", "--config", cfg_path, "--out", d / "run"])[0] == 0
        (d / "alone").mkdir()
        shutil.copy(d / "run" / "trace.csv", d / "alone" / "trace.csv")
        code, text = quiet_main(["verify", "--trace", d / "alone" / "trace.csv",
                                 "--config", cfg_path])
        assert code == 0
        summary = json.loads((d / "run" / "summary.json").read_text())
        found[name] = (cfg_path, d / "run", summary, json.loads(text))
    return found


@st.composite
def corrupted_summary(draw, summary: dict) -> str:
    """summary.json text with 1-3 corruptions that no run writes."""
    summary = json.loads(json.dumps(summary))
    for _ in range(draw(st.integers(1, 3))):
        constants = summary.get("constants")
        how = draw(st.sampled_from(["drop", "junk", "length", "element", "root"]))
        if how == "root" or not isinstance(constants, dict):
            key = draw(st.sampled_from(sorted(ROOT_JUNK)))
            if draw(st.booleans()):
                summary.pop(key, None)
            else:
                summary[key] = draw(st.sampled_from(ROOT_JUNK[key]))
            continue
        key = draw(st.sampled_from(sorted(JUNK)))
        value = constants.get(key)
        if how == "drop":
            constants.pop(key, None)
        elif how in ("length", "element") and isinstance(value, list) and value:
            if how == "length":
                constants[key] = value[:-1] if draw(st.booleans()) else value + value[-1:]
            else:
                value[draw(st.integers(0, len(value) - 1))] = draw(
                    st.sampled_from(["1.0", None, True, 0.0, -1.0, *NON_FINITE]))
        else:
            constants[key] = draw(st.sampled_from(JUNK[key]))
    text = json.dumps(summary)  # writes the NaN and Infinity tokens
    shape = draw(st.sampled_from(["object", "object", "object", "truncated", "other root"]))
    if shape == "truncated":
        return text[:draw(st.integers(0, len(text) - 1))]
    if shape == "other root":
        return json.dumps(draw(st.sampled_from([[summary], 1.5, "summary", None])))
    return text


@FUZZ
@given(data=st.data(), name=st.sampled_from(sorted(BASE_CONFIGS)))
def test_corrupted_summary_falls_back_to_a_rebuild(runs, tmp_path_factory, data, name):
    cfg_path, run_dir, summary, rebuilt = runs[name]
    d = tmp_path_factory.mktemp("corrupt")
    shutil.copy(run_dir / "trace.csv", d / "trace.csv")
    (d / "summary.json").write_text(data.draw(corrupted_summary(summary)))
    code, text = quiet_main(["verify", "--trace", d / "trace.csv", "--config", cfg_path])
    report = json.loads(text)
    assert (code, report["constants_from"]) == (0, "rebuild")
    for key in ("results", "violations", "skipped"):
        assert json.dumps(report[key]) == json.dumps(rebuilt[key])


def loose(valid, huge=True):
    """valid values two times in three, else a value of any JSON type, NaN or
    an infinity (or, where huge, +-1e308: never for max_iters, which would
    run that long)."""
    extremes = [*NON_FINITE, [], [1], {}] + ([1e308, -1e308] if huge else [])
    junk = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.sampled_from(extremes))
    return st.sampled_from([valid, valid, junk]).flatmap(lambda chosen: chosen)


INTEGRAL = loose(st.one_of(st.integers(-3, 24), st.floats(-3.0, 24.0)))
REAL = loose(st.floats(allow_nan=True, allow_infinity=True))
INSTANCE_KEYS = {
    "kind": loose(st.sampled_from(["quadratic", "rank_deficient", "composite",
                                   "nonlinear_pl"])),
    "seed": INTEGRAL, "dim": INTEGRAL, "rank": INTEGRAL, "n": INTEGRAL, "m": INTEGRAL,
    # up to 1e4 only among the valid values: near 1/eps the composite
    # reference solve runs to its cap, for seconds, before it fails
    "cond_number": loose(st.floats(0.5, 1e4)), "gamma": REAL, "eps": REAL,
    "kinds": loose(st.lists(st.sampled_from(["l1", "box", "zero", "l2"]), max_size=3)),
    "box_bounds": loose(st.lists(st.floats(allow_nan=True), max_size=3)),
    "dimm": INTEGRAL,
}
SOLVER_KEYS = {
    "name": loose(st.sampled_from(["am", "aam", "s1"])),
    "method": loose(st.sampled_from(["am", "aam", "fgm", "gd"])),
    "max_iters": loose(st.integers(-2, 12), huge=False),
    "target_gap": REAL, "grad_tolerance": REAL,
    "mu_assumed": loose(st.sampled_from([0.0, 0.5, 1e3, "optimal", "true"])),
    "l_known": loose(st.sampled_from([1.0, 1e4, "optimal"])),
    # keys no solver takes, both former options, which exit 2
    "momentum_rule": loose(st.sampled_from(["proof", "literal"])),
    "line_search_tol": REAL,
}
TOP_KEYS = {
    "instance": loose(st.just({"kind": "quadratic"})),
    "solvers": loose(st.just([])),
    "certificates": loose(st.lists(st.sampled_from(
        ["am_linear_pl", "am_sublinear", "aam_main", "aam_Ak_growth", "aam_adaptive",
         "nearly_pl_combined", "aam_recurrence", "made_up"]), max_size=3)),
    "record_wall": loose(st.booleans()),
}
# small valid configs, one per instance kind, that the fuzzer edits
VALID_CONFIGS = [
    {"instance": {"kind": "quadratic", "seed": 1, "dim": 8, "cond_number": 50.0},
     "solvers": [{"name": "am", "method": "am", "max_iters": 10},
                 {"name": "aam", "method": "aam", "max_iters": 10, "mu_assumed": "optimal"},
                 {"name": "fgm", "method": "fgm", "max_iters": 10, "l_known": "optimal"}],
     "certificates": ["am_linear_pl", "am_sublinear", "aam_main", "aam_Ak_growth"]},
    {"instance": {"kind": "composite", "seed": 2, "dim": 8, "gamma": 0.3,
                  "kinds": ["l1", "box"], "box_bounds": [-0.5, 0.5], "cond_number": 20.0},
     "solvers": [{"name": "am", "method": "am", "max_iters": 10}],
     "certificates": ["am_linear_pl", "nearly_pl_combined"]},
    {"instance": {"kind": "rank_deficient", "seed": 3, "dim": 8, "rank": 6},
     "solvers": [{"name": "am", "method": "am", "max_iters": 10}],
     "certificates": ["am_sublinear"]},
    {"instance": {"kind": "nonlinear_pl", "seed": 2, "n": 8, "m": 5, "eps": 0.25},
     "solvers": [{"name": "am", "method": "am", "max_iters": 6},
                 {"name": "aam", "method": "aam", "max_iters": 6}],
     "certificates": ["aam_main", "aam_adaptive"]},
]


@st.composite
def fuzzed_config(draw) -> dict:
    """A valid config with 0-3 of its fields set to loose values."""
    cfg = json.loads(json.dumps(draw(st.sampled_from(VALID_CONFIGS))))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        where = draw(st.sampled_from(["instance", "instance", "solver", "solver", "top"]))
        if where == "instance" and isinstance(cfg["instance"], dict):
            # mostly a key the kind takes, sometimes the kind or a key it does not
            keys = sorted(cfg["instance"]) + ["kind", "dimm"]
            key = draw(st.sampled_from(keys))
            cfg["instance"][key] = draw(INSTANCE_KEYS[key])
        elif where == "solver" and isinstance(cfg["solvers"], list) and all(
                isinstance(entry, dict) for entry in cfg["solvers"]) and cfg["solvers"]:
            entry = draw(st.sampled_from(cfg["solvers"]))
            key = draw(st.sampled_from(sorted(SOLVER_KEYS)))
            entry[key] = draw(SOLVER_KEYS[key])
        else:
            key = draw(st.sampled_from(sorted(TOP_KEYS)))
            cfg[key] = draw(TOP_KEYS[key])
    return cfg


@FUZZ
@given(cfg=fuzzed_config())
def test_fuzzed_config_exits_with_a_code(tmp_path_factory, cfg):
    d = tmp_path_factory.mktemp("config")
    cfg_path = d / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _ = quiet_main(["run", "--config", cfg_path, "--out", d / "run"])
    assert code in (0, 1, 2, 3)
    code, _ = quiet_main(["verify", "--trace", d / "run" / "trace.csv", "--config", cfg_path])
    assert code in (0, 1, 2, 3)
