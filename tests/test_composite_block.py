"""The active-set block solver of l1 and box blocks: KKT conditions at the
result, agreement with exact coordinate descent, descent, the untouched other
block, and the coordinate-descent fallback."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmin import SolverConfig, make_composite, run_am
from blockmin import problems
from blockmin.proxmaps import BoxTerm, L1Term

# (seed, dim, kinds, box_bounds): every instance has an l1 or a box block
INSTANCES = [(11, 12, ("l1", "zero"), (-0.5, 0.5)),
             (13, 12, ("box", "box"), (-0.3, 0.3)),
             (3, 32, ("l1", "box"), (-0.5, 0.5)),
             (4, 64, ("box", "l1"), (-0.2, 0.6)),
             (5, 64, ("l1", "l1"), (-0.5, 0.5))]
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=80)


@functools.lru_cache(maxsize=None)
def problem(n):
    seed, dim, kinds, box_bounds = INSTANCES[n]
    return make_composite(seed, dim, 0.4, kinds=kinds, box_bounds=box_bounds)


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
    return max(np.abs(r[inside]).max(initial=0.0), r[at_lo].max(initial=0.0),
               (-r[at_hi]).max(initial=0.0),
               (term.lo - z).max(), (z - term.hi).max())


def reference(term, gram, lin, z0):
    """The same block problem by exact cyclic coordinate descent."""
    n = z0.size
    if isinstance(term, L1Term):
        args = ([term.weight] * n, [-np.inf] * n, [np.inf] * n)
    else:
        args = ([0.0] * n, [term.lo] * n, [term.hi] * n)
    return problems._coordinate_descent(gram, lin, z0, *args)


@DETERMINISTIC
@given(n=st.integers(0, len(INSTANCES) - 1), i=st.integers(0, 1),
       point_seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
def test_block_argmin_meets_kkt_and_matches_coordinate_descent(n, i, point_seed, scale):
    p = problem(n)
    term = p.terms[i]
    if term.is_zero:
        return
    x = point(p, point_seed, scale)
    out = p.block_argmin(x, i)
    idx = p.partition.blocks[i]
    gram, lin = block_problem(p, x, i)
    z = out[idx]
    scale_r = 1.0 + float(np.abs(lin).max()) + float((np.abs(gram) @ np.abs(z)).max())
    assert kkt_violation(term, gram, lin, z) <= 1e-13 * scale_r
    z_cd = reference(term, gram, lin, x[idx])
    assert np.abs(z - z_cd).max() <= 1e-12 * (1.0 + np.abs(z).max())
    other = p.partition.blocks[1 - i]
    assert np.array_equal(out[other], x[other])
    f_x = composite_value(p, x)
    assert composite_value(p, out) <= f_x + 1e-13 * (1.0 + abs(f_x))


def test_full_fallback_gives_the_same_minimizer(monkeypatch):
    p = problem(2)
    x = point(p, 7, 1.0)
    expected = [p.block_argmin(x, i) for i in (0, 1)]
    full_runs = []
    coordinate_descent = problems._coordinate_descent

    def counted(*args, max_sweeps=100_000):
        full_runs.append(max_sweeps == 100_000)
        return coordinate_descent(*args, max_sweeps=max_sweeps)

    monkeypatch.setattr(problems, "_ACTIVE_SET_ROUNDS", 0)
    monkeypatch.setattr(problems, "_pattern_solve", lambda *args: None)
    monkeypatch.setattr(problems, "_coordinate_descent", counted)
    for i in (0, 1):
        out = p.block_argmin(x, i)
        assert np.abs(out - expected[i]).max() <= 1e-12 * (1.0 + np.abs(out).max())
    assert sum(full_runs) == 2


@pytest.mark.parametrize("n", [0, 1, 2])
def test_am_run_never_needs_the_full_fallback(n, monkeypatch):
    p = problem(n)
    coordinate_descent = problems._coordinate_descent

    def sweeps_only(*args, max_sweeps=None):
        assert max_sweeps == problems._ACTIVE_SET_SWEEPS
        return coordinate_descent(*args, max_sweeps=max_sweeps)

    monkeypatch.setattr(problems, "_coordinate_descent", sweeps_only)
    trace = run_am(p.handle(), p.default_start, SolverConfig(max_iters=200, target_gap=1e-10))
    assert trace.status == "target_gap"
