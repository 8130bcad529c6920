"""The active-set block solver of l1 and box blocks: KKT conditions at the
result, agreement with exact coordinate descent, descent, the untouched other
block, the same floats as a fresh factorization of the accepted pattern, the
planted minimizer of degenerate blocks, the pattern solves and factorizations
it makes, the FISTA fallback when the warm start's pattern fails, and a solver
failure, never an unchecked point, at the step cap."""

import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmin import SolverConfig, cli, make_composite, run_am
from blockmin import problems
from blockmin.errors import SolverError
from blockmin.linalg import cholesky, solve_spd
from blockmin.proxmaps import BoxTerm, L1Term

# (seed, dim, gamma, kinds, box_bounds): every instance has an l1 or a box
# block; the last four are degenerate: a box with lo == hi, a bound at zero,
# an l1 weight of 0 and a heavy l1 weight
INSTANCES = [(11, 12, 0.4, ("l1", "zero"), (-0.5, 0.5)),
             (13, 12, 0.4, ("box", "box"), (-0.3, 0.3)),
             (3, 32, 0.4, ("l1", "box"), (-0.5, 0.5)),
             (4, 64, 0.4, ("box", "l1"), (-0.2, 0.6)),
             (5, 64, 0.4, ("l1", "l1"), (-0.5, 0.5)),
             (6, 12, 0.4, ("box", "l1"), (0.0, 0.0)),
             (7, 32, 0.4, ("zero", "box"), (0.0, 1.0)),
             (8, 12, 0.0, ("l1", "box"), (-0.5, 0.5)),
             (9, 32, 5.0, ("l1", "l1"), (-0.5, 0.5))]
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=120)


@functools.lru_cache(maxsize=None)
def problem(n):
    seed, dim, gamma, kinds, box_bounds = INSTANCES[n]
    return make_composite(seed, dim, gamma, kinds=kinds, box_bounds=box_bounds)


def point(p, point_seed, scale):
    """x* plus a normal draw, with box blocks clipped so that F(x) is finite."""
    x = p.x_star + scale * np.random.default_rng(point_seed).standard_normal(p.x_star.size)
    for term, idx in zip(p.terms, p.partition.blocks):
        if isinstance(term, BoxTerm):
            x[idx] = np.clip(x[idx], term.lo, term.hi)
    return x


def block_problem(p, x, i):
    """Gram matrix and linear term of block i with the other block fixed,
    formed from W and b directly."""
    idx = p.partition.blocks[i]
    other = p.partition.blocks[1 - i]
    cols = p.W[:, idx]
    return cols.T @ cols, cols.T @ (p.b - p.W[:, other] @ x[other])


def composite_value(p, x):
    return p.smooth_value(x) + sum(float(t.value(x[idx]))
                                   for t, idx in zip(p.terms, p.partition.blocks))


def bounds(term):
    """(weight, lo, hi) of an l1 or box term."""
    if isinstance(term, L1Term):
        return term.weight, -np.inf, np.inf
    return 0.0, term.lo, term.hi


def kkt_violation(term, gram, lin, z):
    """Largest violation of the block KKT conditions at z, with r = lin - gram z:
    r_j = w sign(z_j) / 2 where z_j != 0 and |r_j| <= w / 2 where z_j = 0 for
    l1; lo <= z <= hi, r_j = 0 inside, r_j <= 0 at lo and r_j >= 0 at hi for box."""
    r = lin - gram @ z
    if isinstance(term, L1Term):
        half = 0.5 * term.weight
        on = z != 0.0
        return max(np.abs(r[on] - half * np.sign(z[on])).max(initial=0.0),
                   (np.abs(r[~on]) - half).max(initial=0.0))
    at_lo, at_hi = z == term.lo, z == term.hi
    inside = ~(at_lo | at_hi)
    # with lo == hi a coordinate is at both bounds and r is free
    return max(np.abs(r[inside]).max(initial=0.0),
               r[at_lo & ~at_hi].max(initial=0.0), (-r[at_hi & ~at_lo]).max(initial=0.0),
               (term.lo - z).max(), (z - term.hi).max())


def coordinate_descent(term, gram, lin, z0):
    """The same block problem by exact cyclic coordinate descent, to a change
    of 1e-15 relative."""
    weight, lo, hi = bounds(term)
    z = z0.copy()
    for _ in range(100_000):
        delta = 0.0
        for j in range(z.size):
            r = lin[j] - (gram[j] @ z - gram[j, j] * z[j])
            new = np.sign(r) * max(abs(r) - 0.5 * weight, 0.0) / gram[j, j]
            new = min(hi, max(lo, new))
            delta = max(delta, abs(new - z[j]))
            z[j] = new
        if delta < 1e-15 * (1.0 + float(np.abs(z).max())):
            return z
    raise AssertionError("coordinate descent did not converge")


@DETERMINISTIC
@given(n=st.integers(0, len(INSTANCES) - 1), i=st.integers(0, 1),
       point_seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
def test_block_argmin_meets_kkt_and_matches_coordinate_descent(n, i, point_seed, scale):
    p = problem(n)
    term = p.terms[i]
    if term.is_zero:
        return
    x = point(p, point_seed, scale)
    h = p.handle()
    out = h.exact_block_min(h.evaluate(x), i)
    idx = p.partition.blocks[i]
    gram, lin = block_problem(p, x, i)
    z = out[idx]
    scale_r = 1.0 + float(np.abs(lin).max()) + float((np.abs(gram) @ np.abs(z)).max())
    assert kkt_violation(term, gram, lin, z) <= 1e-13 * scale_r
    z_cd = coordinate_descent(term, gram, lin, x[idx])
    assert np.abs(z - z_cd).max() <= 1e-12 * (1.0 + np.abs(z).max())
    other = p.partition.blocks[1 - i]
    assert np.array_equal(out[other], x[other])
    f_x = composite_value(p, x)
    assert composite_value(p, out) <= f_x + 1e-13 * (1.0 + abs(f_x))


def fresh_pattern_solve(gram, lin, z, weight, lo, hi):
    """Minimizer of the l1 / box problem with the pattern of z held fixed, or
    None if it fails the KKT check: the pattern solve with a fresh reduced
    matrix and factorization on every call, kept as the reference."""
    out = np.clip(z, lo, hi)
    sign = np.sign(weight * out)
    at_lo, at_hi = out == lo, out == hi
    free = ~(at_lo | at_hi) & ((sign != 0.0) | (weight == 0.0))
    half = 0.5 * weight
    target = half * sign
    f = np.flatnonzero(free)
    if f.size:
        out[f] = 0.0
        out[f] = solve_spd(cholesky(gram[np.ix_(f, f)]), lin[f] - target[f] - gram[f] @ out)
    r = lin - gram @ out
    tol = problems._ACTIVE_SET_RTOL * z.size * (np.abs(lin) + np.abs(gram) @ np.abs(out) + half)
    zero = sign == 0.0
    r_lo = np.where(at_lo, -np.inf, np.where(zero, -half, target)) - tol
    r_hi = np.where(at_hi, np.inf, np.where(zero, half, target)) + tol
    if np.all((r_lo <= r) & (r <= r_hi) & (lo <= out) & (out <= hi) & (sign * out >= 0.0)):
        return out
    return None


def test_block_argmin_gives_the_floats_of_a_fresh_factorization():
    # AM sweeps over all instances at once, so that the blocks and the
    # instances alternate: each solve after the first on a block can reuse the
    # factor its last solve left, which must never be another block's
    xs = [point(problem(n), n, 1.0) for n in range(len(INSTANCES))]
    reused = 0
    for _, n, i in itertools.product(range(4), range(len(INSTANCES)), (0, 1)):
        p = problem(n)
        if p.terms[i].is_zero:
            continue
        idx = p.partition.blocks[i]
        h = p.handle()
        start = h.evaluate(xs[n])
        gram = p._facts[i].source
        free = p._last[i].free
        out = h.exact_block_min(start, i)
        reused += free is not None and p._last[i].free is free
        weight, lo, hi = (a[idx] for a in p._bounds)
        lin = gram @ start.x[idx] - 0.5 * start.g[idx]
        expected = fresh_pattern_solve(gram, lin, out[idx], weight, lo, hi)
        assert expected is not None and np.array_equal(out[idx], expected)
        xs[n] = out
    assert reused > 0


def degenerate_block(kind, seed):
    """A block problem with a planted minimizer z* whose KKT conditions hold
    with no slack on many coordinates: (gram, lin, start, weight, lo, hi, z*).
    Box: a third of z* at hi and the clipped coordinates at -0.5 or 0.5, all
    with multiplier 0. l1 (weight 0.4): 40% of z* at zero, half of those with
    |r_j| = 0.2, the largest the condition allows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    a = rng.standard_normal((n + 3, n))
    gram = a.T @ a / n + 0.01 * np.eye(n)
    if kind == "box":
        weight, lo, hi = np.zeros(n), np.full(n, -0.5), np.full(n, 0.5)
        z = np.clip(rng.standard_normal(n), lo, hi)
        z[rng.permutation(n)[:n // 3]] = 0.5
        r = np.zeros(n)
    else:
        weight, lo, hi = np.full(n, 0.4), np.full(n, -np.inf), np.full(n, np.inf)
        z = rng.standard_normal(n)
        zero = rng.permutation(n)[:round(0.4 * n)]
        z[zero] = 0.0
        r = 0.2 * np.sign(z)
        r[zero] = rng.uniform(-0.2, 0.2, zero.size)
        edge = zero[:zero.size // 2]
        r[edge] = 0.2 * rng.choice([-1.0, 1.0], edge.size)
    return gram, gram @ z + r, 0.3 * rng.standard_normal(n), weight, lo, hi, z


@DETERMINISTIC
@given(kind=st.sampled_from(["box", "l1"]), seed=st.integers(0, 2**32 - 1))
def test_degenerate_blocks_give_the_planted_minimizer(kind, seed):
    # FISTA iterates never settle on the pattern of such a z*, and the patterns
    # they do settle on fail the check by rounding; their proposals reach it
    gram, lin, start, weight, lo, hi, z_star = degenerate_block(kind, seed)
    lam = float(np.linalg.eigvalsh(gram)[-1])
    z = problems._active_set_solve(gram, lin, start, weight, lo, hi, lam)
    assert np.abs(z - z_star).max() <= 1e-12


def test_pattern_solves_and_factorizations_are_pinned(monkeypatch):
    counts = {"_pattern_solve": 0, "cholesky": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    for name in counts:
        monkeypatch.setattr(problems, name, counted(name, getattr(problems, name)))
    p = make_composite(1, 256, 0.4, ("l1", "box"))
    # the cold solve of the build tried 34 patterns when each try was proposed
    # by a FISTA iterate
    assert counts["_pattern_solve"] <= 12
    counts.update(_pattern_solve=0, cholesky=0)
    trace = run_am(p.handle(), p.default_start, SolverConfig(max_iters=2000, target_gap=1e-8))
    assert trace.status == "target_gap"
    # 177 of each when every try factored its own reduced system
    assert counts["_pattern_solve"] <= 130
    assert counts["cholesky"] <= 60


def test_full_fallback_gives_the_same_minimizer(monkeypatch):
    p = problem(2)
    x = point(p, 7, 1.0)
    h = p.handle()
    expected = [h.exact_block_min(h.evaluate(x), i) for i in (0, 1)]
    pattern_solve = problems._pattern_solve
    calls = []

    def warm_start_fails(*args):
        # reject the first pattern of each solve, the warm start's, and propose
        # it again, so that the patterns of the FISTA iterates settle the block
        calls.append(args)
        return (False, args[3]) if len(calls) == 1 else pattern_solve(*args)

    monkeypatch.setattr(problems, "_pattern_solve", warm_start_fails)
    for i in (0, 1):
        calls.clear()
        out = h.exact_block_min(h.evaluate(x), i)
        assert len(calls) >= 2
        assert np.abs(out - expected[i]).max() <= 1e-12 * (1.0 + np.abs(out).max())


@pytest.mark.parametrize("n", [0, 1, 2])
def test_am_run_never_needs_the_full_fallback(n, monkeypatch):
    p = problem(n)
    fista = problems._fista
    steps = []

    def counted(*args):
        steps.append(0)
        for x in fista(*args):
            steps[-1] += 1
            yield x

    pattern_solve = problems._pattern_solve
    solves = []

    def counted_solve(*args):
        solves.append(0)
        return pattern_solve(*args)

    monkeypatch.setattr(problems, "_fista", counted)
    monkeypatch.setattr(problems, "_pattern_solve", counted_solve)
    trace = run_am(p.handle(), p.default_start, SolverConfig(max_iters=200, target_gap=1e-10))
    assert trace.status == "target_gap"
    # every block settles on the patterns its failed tries propose or after a
    # short FISTA run, far from the step cap
    assert solves and max(steps, default=0) <= problems._ACTIVE_SET_MAX_STEPS // 100


def test_step_cap_is_a_solver_failure(tmp_path, monkeypatch, capsys):
    p = problem(2)
    x = point(p, 7, 1.0)
    monkeypatch.setattr(problems, "_ACTIVE_SET_MAX_STEPS", 0)
    # every pattern fails and proposes itself again
    monkeypatch.setattr(problems, "_pattern_solve", lambda *args: (False, args[3]))
    for i in (0, 1):
        with pytest.raises(SolverError, match="no pattern that meets the KKT conditions"):
            p.block_argmin(p.handle().evaluate(x), i)
    # the CLI gets the built instance, so the failure comes from AM's block step
    monkeypatch.setattr(cli, "make_composite", lambda *args, **kwargs: p)
    cfg = {"instance": {"kind": "composite"},
           "solvers": [{"name": "am", "method": "am", "max_iters": 10}]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert "no pattern that meets the KKT conditions" in capsys.readouterr().err
