"""Each point is evaluated once: the value-and-gradient hook gives the same
floats as the per-block oracles, the affine hook gives f and grad f at a
combination of two points to rounding, the solvers give the same traces with
and without the hooks, and the calls per iteration stay at what the methods
need."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmin import (BlockPartition, CompositeQuadraticProblem, ObjectiveHandle,
                      SolverConfig, exact_line_search, make_composite, make_quadratic,
                      make_rank_deficient, run_aam, run_am, run_fgm)
from blockmin.errors import DimensionMismatch
from blockmin.solvers import _LINE_SEARCH_MAX_PROBES

# an upper bound on the smoothness constant of the nonlinear fixture, which
# declares none; AAM with known L and FGM need one
NONLINEAR_L = 20.0


@pytest.fixture(params=["quad16", "composite12", "nonlinear20"])
def problem(request):
    return request.param, request.getfixturevalue(request.param)


def without_hook(h):
    return dataclasses.replace(h, value_and_gradient=None, affine_value_and_gradient=None)


class TestValueAndGradientHook:
    def test_matches_per_block_oracles_exactly(self, problem, rng):
        _, p = problem
        h = p.handle()
        assert h.value_and_gradient is not None
        plain = without_hook(h)
        for _ in range(5):
            x = p.default_start + rng.standard_normal(h.dim)
            f, g = h.value_and_gradient(x)[:2]
            assert f == h.smooth_value(x)
            assert np.array_equal(g, plain.full_gradient(x))
            point = h.evaluate(x)
            assert point.f == f and np.array_equal(point.g, g)
            assert np.array_equal(h.full_gradient(x), g)

    def test_evaluate_without_hook(self):
        part = BlockPartition.contiguous([1, 2])
        h = ObjectiveHandle(partition=part, smooth_value=lambda x: float(x @ x),
                            block_gradient=lambda x, i: 2 * x[part.blocks[i]])
        point = h.evaluate(np.array([1.0, -2.0, 3.0]))
        assert point.f == 14.0
        np.testing.assert_array_equal(point.g, [2.0, -4.0, 6.0])

    def test_hook_gradient_shape_checked(self, quad16):
        h = dataclasses.replace(quad16.handle(),
                                value_and_gradient=lambda x: (0.0, np.zeros(3)))
        with pytest.raises(DimensionMismatch):
            h.full_gradient(np.zeros(16))
        with pytest.raises(DimensionMismatch):
            h.evaluate(np.zeros(16))

    def test_composite_value_takes_known_smooth_value(self, composite12):
        h = composite12.handle()
        x = composite12.default_start
        f = h.smooth_value(x)
        assert h.composite_value(x, smooth=f) == h.composite_value(x)
        assert h.composite_value(x, smooth=f + 1.0) == h.composite_value(x) + 1.0

    def test_line_search_returns_value_at_result(self, quad16, rng):
        # exact without the hooks; to rounding when y is an affine point
        h = quad16.handle()
        for hh in (without_hook(h), h):
            for _ in range(10):
                x = quad16.x_star + rng.standard_normal(16)
                v = quad16.x_star + rng.standard_normal(16)
                _, y = exact_line_search(hh, hh.evaluate(x), hh.evaluate(v))
                f = h.smooth_value(y.x)
                if hh is h:
                    assert abs(y.f - f) <= 1e-13 * (1.0 + f)
                else:
                    assert y.f == f


def _four_block_quadratic():
    q = make_quadratic(0, 16, 100.0)
    return CompositeQuadraticProblem(
        W=q.W, b=q.b, partition=BlockPartition.contiguous([4] * 4), terms=None,
        default_start=q.default_start)


# least-squares problems whose handles combine points: quadratic, rank
# deficient, composite (the smooth part is the same) and four blocks
AFFINE_PROBLEMS = [make_quadratic(3, 16, 200.0), make_rank_deficient(5, 16, 12),
                   make_composite(11, 12, 0.4, ("l1", "box")), _four_block_quadratic()]
EPS = np.finfo(float).eps


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(n=st.integers(0, len(AFFINE_PROBLEMS) - 1), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), t=st.floats(0.0, 1.0))
def test_affine_point_matches_a_fresh_evaluation(n, seed, scale, t):
    # |r| <= s = |W| (|p.x| + |q.x|) + |b| termwise on the whole segment; each
    # residual is a sum of at most dim + 1 terms that size, so f and g of the
    # affine point stay within 8 dim eps of the terms of r.r and 2 W^T r
    prob = AFFINE_PROBLEMS[n]
    h = prob.handle()
    rng = np.random.default_rng(seed)
    p = h.evaluate(prob.x_star + scale * rng.standard_normal(h.dim))
    q = h.evaluate(prob.x_star + scale * rng.standard_normal(h.dim))
    combined = h.affine(p, q, t)
    fresh = h.evaluate(p.x + t * (q.x - p.x))
    assert np.array_equal(combined.x, fresh.x)
    absw = np.abs(prob.W)
    s = absw @ (np.abs(p.x) + np.abs(q.x)) + np.abs(prob.b)
    tol = 8.0 * h.dim * EPS
    assert abs(combined.f - fresh.f) <= tol * float(s @ s)
    assert np.all(np.abs(combined.g - fresh.g) <= tol * 2.0 * (absw.T @ s))
    assert np.all(np.abs(combined.cache - fresh.cache) <= tol * s)


def _solver_runs(p):
    """(label, runner) pairs of every solver that applies to the instance."""
    h = p.handle()
    runs = [("am", lambda hh: run_am(hh, p.default_start, SolverConfig(max_iters=12)))]
    if not h.is_smooth():
        return runs
    l_const = h.l_global if h.l_global is not None else NONLINEAR_L
    for label, l_known in (("aam_adaptive", None), ("aam_known_l", l_const)):
        cfg = SolverConfig(max_iters=12, l_known=l_known)
        runs.append((label, lambda hh, cfg=cfg: run_aam(hh, p.default_start, cfg)))
    cfg = SolverConfig(max_iters=12, l_known=l_const)
    runs.append(("fgm", lambda hh: run_fgm(hh, p.default_start, cfg)))
    return runs


def test_traces_identical_with_and_without_hook(problem):
    # the runs that combine no points: every solver on the nonlinear system,
    # which has no affine hook, and AM everywhere
    name, p = problem
    h = p.handle()
    for label, run in _solver_runs(p):
        if label != "am" and name != "nonlinear20":
            continue
        with_hook, plain = run(h), run(without_hook(h))
        assert with_hook.status == plain.status, label
        assert len(with_hook.records) == len(plain.records), label
        for r1, r2 in zip(with_hook.records, plain.records):
            for attr in ("composite_value", "grad_norm", "beta", "a"):
                assert getattr(r1, attr) == getattr(r2, attr), (label, r1.k, attr)


@pytest.mark.parametrize("name", ["quad16", "rankdef16"])
def test_combined_points_track_the_hook_free_run(name, request):
    # AAM and FGM on least squares combine points through the affine hook;
    # over 12 iterations they make the choices of the hook-free run, and F
    # agrees to rounding
    p = request.getfixturevalue(name)
    h = p.handle()
    for label, run in _solver_runs(p)[1:]:
        combined, plain = run(h), run(without_hook(h))
        assert combined.status == plain.status, label
        assert len(combined.records) == len(plain.records), label
        for r1, r2 in zip(combined.records, plain.records):
            assert r1.block == r2.block, (label, r1.k)
            if r2.beta is not None:
                assert (r1.beta in (0.0, 1.0)) == (r2.beta in (0.0, 1.0)), (label, r1.k)
                assert abs(r1.beta - r2.beta) <= 1e-10, (label, r1.k)
            f = r2.composite_value
            assert abs(r1.composite_value - f) <= 1e-12 * (1.0 + abs(f)), (label, r1.k)


_ORACLES = ("smooth_value", "block_gradient", "block_argmin", "line_minimizer",
            "value_and_gradient", "affine_value_and_gradient")


def counted(h):
    """Copy of h whose callables count their calls into the returned Counter."""
    counts = Counter()

    def wrap(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    fields = {n: wrap(n, getattr(h, n)) for n in _ORACLES if getattr(h, n) is not None}
    return dataclasses.replace(h, **fields), counts


def calls_per_iteration(h, run, cfg):
    """Oracle calls per iteration, from the difference of a 5- and a
    10-iteration run, so the start record and the first step drop out."""
    totals = []
    for n in (5, 10):
        hc, counts = counted(h)
        trace = run(hc, cfg(n))
        assert trace.status == "max_iters" and trace.final.k == n
        totals.append(counts)
    return {name: (totals[1][name] - totals[0][name]) / 5 for name in _ORACLES}


class TestOracleCounts:
    @pytest.fixture(scope="class")
    def quad32(self):
        return make_quadratic(0, 32, 1000.0)

    def test_am(self, quad32):
        calls = calls_per_iteration(
            quad32.handle(), lambda h, c: run_am(h, quad32.default_start, c),
            lambda n: SolverConfig(max_iters=n))
        assert calls == {"value_and_gradient": 1, "block_argmin": 1, "smooth_value": 0,
                         "block_gradient": 0, "line_minimizer": 0,
                         "affine_value_and_gradient": 0}

    @pytest.mark.parametrize("known_l", [False, True])
    def test_aam(self, quad32, known_l):
        l_known = quad32.l_global if known_l else None
        calls = calls_per_iteration(
            quad32.handle(), lambda h, c: run_aam(h, quad32.default_start, c),
            lambda n: SolverConfig(max_iters=n, l_known=l_known))
        # the record's x_next and the momentum point v are evaluated; y is an
        # affine point, and the line search's candidate at 1 is v itself. At
        # k = 6 the known-L run's line minimizer lies below 0, so y is x and
        # no affine point is made
        assert calls == {"value_and_gradient": 2, "smooth_value": 0, "line_minimizer": 1,
                         "block_argmin": 1, "block_gradient": 0,
                         "affine_value_and_gradient": 0.8 if known_l else 1}

    def test_fgm(self, quad32):
        calls = calls_per_iteration(
            quad32.handle(), lambda h, c: run_fgm(h, quad32.default_start, c),
            lambda n: SolverConfig(max_iters=n, l_known=quad32.l_global))
        # z is evaluated; the momentum point is an affine point
        assert calls == {"value_and_gradient": 1, "smooth_value": 0, "block_gradient": 0,
                         "block_argmin": 0, "line_minimizer": 0,
                         "affine_value_and_gradient": 1}

    def test_aam_nonlinear(self, nonlinear20):
        # no line minimizer and no affine hook: x_next, v and each probe of
        # the slope search are evaluated once, and nothing calls the value alone
        p = nonlinear20
        calls = calls_per_iteration(
            p.handle(), lambda h, c: run_aam(h, p.default_start, c),
            lambda n: SolverConfig(max_iters=n))
        probes = calls.pop("value_and_gradient") - 2
        assert calls == {"smooth_value": 0, "block_gradient": 0, "block_argmin": 1,
                         "line_minimizer": 0, "affine_value_and_gradient": 0}
        assert 0 < probes <= _LINE_SEARCH_MAX_PROBES

    def test_aam_without_hook(self, quad32):
        calls = calls_per_iteration(
            without_hook(quad32.handle()),
            lambda h, c: run_aam(h, quad32.default_start, c),
            lambda n: SolverConfig(max_iters=n))
        assert calls["block_gradient"] <= 4
        assert calls["smooth_value"] <= 3
        assert calls["value_and_gradient"] == 0
