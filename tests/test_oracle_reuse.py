"""Each point is evaluated once: the value-and-gradient hook gives the same
floats as the per-block oracles, the affine and step hooks give f and grad f
at a combination of two points and after a step or a block step to rounding,
chains of such points stay within rounding of fresh evaluations, the solvers
give the same traces with and without the hooks (to rounding where they make
points from other points), and the calls per iteration stay at what the
methods need."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmin import (BlockPartition, CompositeQuadraticProblem, ObjectiveHandle,
                      SolverConfig, exact_line_search, make_composite, make_quadratic,
                      make_rank_deficient, run_aam, run_am, run_fgm)
from blockmin import problems
from blockmin.objective import REFRESH_STEPS
from blockmin.solvers import _LINE_SEARCH_MAX_PROBES

# an upper bound on the smoothness constant of the nonlinear fixture, which
# declares none; AAM with known L and FGM need one
NONLINEAR_L = 20.0


@pytest.fixture(params=["quad16", "composite12", "nonlinear20"])
def problem(request):
    return request.param, request.getfixturevalue(request.param)


def without_hook(h):
    return dataclasses.replace(h, value_and_gradient=None, affine_value_and_gradient=None,
                               step_value_and_gradient=None)


@pytest.fixture(scope="module")
def quad512():
    """A quadratic at dim 512, the large counterpart of quad16."""
    return make_quadratic(0, 512, 100.0)


class TestValueAndGradientHook:
    @pytest.mark.parametrize("name", ["quad16", "composite12", "nonlinear20", "quad512"])
    def test_matches_per_block_oracles_exactly(self, name, request, rng):
        p = request.getfixturevalue(name)
        h = p.handle()
        assert h.value_and_gradient is not None
        plain = without_hook(h)
        for _ in range(5):
            x = p.default_start + rng.standard_normal(h.dim)
            f, g = h.value_and_gradient(x)[:2]
            assert f == h.smooth_value(x)
            assert np.array_equal(g, plain.evaluate(x).g)
            point = h.evaluate(x)
            assert point.f == f and np.array_equal(point.g, g)
            if name != "nonlinear20":
                # a fresh evaluation is r . r and 2 W^T r, r = W x - b, to the bit
                r = p.W @ x - p.b
                assert f == float(r @ r)
                assert np.array_equal(g, 2.0 * (p.W.T @ r))

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
        with pytest.raises(ValueError, match="a hook returned a gradient of shape"):
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


def _four_blocks(q):
    """The least squares of q split into four equal contiguous blocks."""
    return CompositeQuadraticProblem(
        W=q.W, b=q.b, partition=BlockPartition.contiguous([q.W.shape[1] // 4] * 4),
        terms=None, default_start=q.default_start)


# least-squares problems whose handles combine points: quadratic, rank
# deficient, composite (the smooth part is the same) and four blocks
AFFINE_PROBLEMS = [make_quadratic(3, 16, 200.0), make_rank_deficient(5, 16, 12),
                   make_composite(11, 12, 0.4, ("l1", "box")),
                   _four_blocks(make_quadratic(0, 16, 100.0))]
EPS = np.finfo(float).eps


def rounding_bounds(prob, m):
    """Bounds on the error of f, and termwise of grad f, at a point made from
    points no larger than m termwise. There the residual r = W x - b has
    |r| <= s = |W| m + |b|, and each residual is a sum of at most dim + 1
    terms that size, so f and g stay within 8 dim eps of the terms of r.r and
    2 W^T r."""
    absw = np.abs(prob.W)
    s = absw @ m + np.abs(prob.b)
    tol = 8.0 * prob.W.shape[1] * EPS
    return tol * float(s @ s), tol * 2.0 * (absw.T @ s)


def assert_matches_fresh(prob, point, m):
    fresh = prob.handle().evaluate(point.x)
    tol_f, tol_g = rounding_bounds(prob, m)
    assert abs(point.f - fresh.f) <= tol_f
    assert np.all(np.abs(point.g - fresh.g) <= tol_g)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(n=st.integers(0, len(AFFINE_PROBLEMS) - 1), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), t=st.floats(0.0, 1.0))
def test_affine_point_matches_a_fresh_evaluation(n, seed, scale, t):
    # the whole segment is within |p.x| + |q.x| termwise
    prob = AFFINE_PROBLEMS[n]
    h = prob.handle()
    rng = np.random.default_rng(seed)
    p = h.evaluate(prob.x_star + scale * rng.standard_normal(h.dim))
    q = h.evaluate(prob.x_star + scale * rng.standard_normal(h.dim))
    combined = h.affine(p, q, t)
    assert np.array_equal(combined.x, p.x + t * (q.x - p.x))
    assert_matches_fresh(prob, combined, np.abs(p.x) + np.abs(q.x))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(n=st.integers(0, len(AFFINE_PROBLEMS) - 1), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), i=st.integers(0, 3))
def test_block_point_matches_a_fresh_evaluation(n, seed, scale, i):
    # the block change d has |d| <= |p.x| + |x| termwise
    prob = AFFINE_PROBLEMS[n]
    h = prob.handle()
    i %= h.n_blocks
    rng = np.random.default_rng(seed)
    p = h.evaluate(prob.x_star + scale * rng.standard_normal(h.dim))
    block = h.block_min(p, i)
    assert block.steps == 1
    spliced = p.x.copy()
    spliced[h.partition.blocks[i]] = prob.block_argmin(p, i)
    assert np.array_equal(block.x, spliced)
    assert_matches_fresh(prob, block, np.abs(p.x) + np.abs(block.x))


# the affine problems and a quadratic at dim 512
STEP_PROBLEMS = AFFINE_PROBLEMS + [make_quadratic(0, 512, 100.0)]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(n=st.integers(0, len(STEP_PROBLEMS) - 1), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_full_step_point_matches_a_fresh_evaluation(n, seed, scale):
    # a step in every coordinate, G d by symv from one triangle of G; the
    # change d has |d| <= |p.x| + |x| termwise
    prob = STEP_PROBLEMS[n]
    h = prob.handle()
    rng = np.random.default_rng(seed)
    p = h.evaluate(prob.x_star + scale * rng.standard_normal(h.dim))
    x = prob.x_star + scale * rng.standard_normal(h.dim)
    point = h.step(p, x)
    assert point.steps == 1 and np.array_equal(point.x, x)
    assert_matches_fresh(prob, point, np.abs(p.x) + np.abs(x))


def test_full_step_reads_the_gram_matrix_in_place(monkeypatch, quad16, rng):
    # symv is handed an F-ordered view of G: handed the C-ordered G itself,
    # scipy would copy all of it on every call
    seen = []
    symv = problems.scipy.linalg.blas.dsymv

    def spy(alpha, a, x, **kw):
        seen.append(a)
        return symv(alpha, a, x, **kw)

    monkeypatch.setattr(problems.scipy.linalg.blas, "dsymv", spy)
    h = quad16.handle()
    p = h.evaluate(quad16.default_start)
    x = quad16.x_star + rng.standard_normal(16)
    h.step(p, x)
    assert len(seen) == 1
    a = seen[0]
    assert a.flags.f_contiguous and np.shares_memory(a, quad16._gram)
    assert np.array_equal(a, quad16._gram)
    h.step(p, x, 0)  # a block step reads the block's rows of G, not symv
    assert len(seen) == 1


def test_block_steps_are_refreshed(quad16, rng):
    # a chain of block points is evaluated afresh every REFRESH_STEPS steps;
    # an affine point weighs the counts of its two ends
    h = quad16.handle()
    fresh = h.evaluate(quad16.x_star + rng.standard_normal(16))
    p = fresh
    for k in range(1, 2 * REFRESH_STEPS + 1):
        p = h.block_min(p, k % 2)
        assert p.steps == k % REFRESH_STEPS
        assert h.affine(fresh, p, 0.25).steps == 0.25 * p.steps
        if p.steps == 0:
            again = h.evaluate(p.x)
            assert p.f == again.f and np.array_equal(p.g, again.g)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(0, len(AFFINE_PROBLEMS) - 1), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]),
       moves=st.lists(st.sampled_from(["fgm", "aam", "am"]), min_size=1,
                      max_size=3 * REFRESH_STEPS))
def test_chained_points_match_fresh_evaluations(n, seed, scale, moves):
    # chains of the points the solvers make from other points: an FGM
    # iteration (y between x and v, the momentum point v as a step from v,
    # then x between x and the new v), an AAM iteration (y between x and v, a
    # block step from y, then v as a step from v) and an AM block step. Every point
    # stays within rounding of a fresh evaluation, and a step point is
    # evaluated afresh exactly when it would be the REFRESH_STEPS-th of its chain
    prob = AFFINE_PROBLEMS[n]
    h = prob.handle()
    rng = np.random.default_rng(seed)
    x = v = h.evaluate(prob.x_star + scale * rng.standard_normal(h.dim))
    made = [x]

    def made_from(p, q):
        # q was made from p by the step hook, or afresh as the REFRESH_STEPS-th
        if p.steps + 1 >= REFRESH_STEPS:
            again = h.evaluate(q.x)
            assert q.steps == 0 and q.f == again.f and np.array_equal(q.g, again.g)
        else:
            assert q.steps == p.steps + 1
        made.append(q)
        return q

    def affine(p, q, t):
        y = h.affine(p, q, t)
        assert y.steps == (1.0 - t) * p.steps + t * q.steps
        made.append(y)
        return y

    for move in moves:
        i = int(rng.integers(h.n_blocks))
        if move == "am":
            x = made_from(x, h.block_min(x, i))
            continue
        t = float(rng.uniform())
        y = affine(x, v, t)
        if move == "aam":
            x = made_from(y, h.block_min(y, i))
        a = float(rng.uniform()) / prob.l_global
        v_next = (v.x + prob.mu_global * a * y.x - a * y.g) / (1.0 + prob.mu_global * a)
        v = made_from(v, h.step(v, v_next))
        if move == "fgm":
            x = affine(x, v, t)
    m = np.max([np.abs(p.x) for p in made], axis=0)
    for p in made:
        assert_matches_fresh(prob, p, 2.0 * m)


def _assert_records_match_fresh(prob, trace):
    # every point of the run is within the largest record termwise: the y_k
    # lie between x_k and v_k
    h = prob.handle()
    m = np.max([np.abs(a) for r in trace.records for a in (r.x, r.y, r.v)
                if a is not None], axis=0)
    tol_f, tol_g = rounding_bounds(prob, 2.0 * m)
    for r in trace.records:
        fresh = h.evaluate(r.x)
        assert abs(r.composite_value - h.composite_value(r.x, smooth=fresh.f)) <= tol_f, r.k
        assert abs(r.grad_norm - float(np.linalg.norm(fresh.g))) <= float(np.linalg.norm(tol_g)), r.k


@pytest.mark.parametrize("make", [
    lambda: make_quadratic(0, 256, 100.0),
    lambda: _four_blocks(make_quadratic(0, 256, 100.0)),
    lambda: make_rank_deficient(5, 64, 48),
    lambda: make_composite(11, 64, 0.4, ("l1", "box"))],
    ids=["quad256", "quad256_4blocks", "rankdef64", "composite64"])
def test_long_runs_stay_within_rounding_of_fresh_evaluations(make):
    # 3,000 AM steps, up to 1,000 AAM steps (the adaptive rule may end a run
    # converged) and 3,000 FGM steps, most at the rounding floor, where each
    # record's F and ||grad f|| come from a chain of points
    prob = make()
    h = prob.handle()
    floor = 1e-300  # below any gradient floor, so that the runs last
    runs = [run_am(h, prob.default_start, SolverConfig(max_iters=3000, grad_tolerance=floor))]
    if h.is_smooth():
        runs.append(run_fgm(h, prob.default_start, SolverConfig(
            max_iters=3000, grad_tolerance=floor, l_known=prob.l_global)))
        for mu, l_known in ((0.0, None), (prob.mu_global, prob.l_global)):
            runs.append(run_aam(h, prob.default_start, SolverConfig(
                max_iters=1000, grad_tolerance=floor, mu_assumed=mu, l_known=l_known)))
    for trace in runs:
        if trace.method != "aam":
            assert trace.status == "max_iters"
        _assert_records_match_fresh(prob, trace)


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
    # every solver on the nonlinear system, which has only the
    # value-and-gradient hook, gives the same floats; on least squares AM and
    # AAM make step points, so they make the choices of the hook-free run,
    # with F and ||grad f|| within rounding of it
    name, p = problem
    h = p.handle()
    for label, run in _solver_runs(p):
        if label == "fgm" and name != "nonlinear20":
            continue
        with_hook, plain = run(h), run(without_hook(h))
        assert with_hook.status == plain.status, label
        assert len(with_hook.records) == len(plain.records), label
        if name == "nonlinear20":
            for r1, r2 in zip(with_hook.records, plain.records):
                for attr in ("composite_value", "grad_norm", "beta", "a"):
                    assert getattr(r1, attr) == getattr(r2, attr), (label, r1.k, attr)
            continue
        assert [r.block for r in with_hook.records] == [r.block for r in plain.records]
        m = np.max([np.abs(r.x) for r in plain.records], axis=0)
        tol_f, tol_g = rounding_bounds(p, 2.0 * m)
        for r1, r2 in zip(with_hook.records, plain.records):
            assert abs(r1.composite_value - r2.composite_value) <= tol_f, (label, r1.k)
            assert abs(r1.grad_norm - r2.grad_norm) <= float(np.linalg.norm(tol_g)), (label, r1.k)


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
            "value_and_gradient", "affine_value_and_gradient", "step_value_and_gradient")


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
        # each iterate is a block step from the last
        assert calls == {"value_and_gradient": 0, "step_value_and_gradient": 1,
                         "block_argmin": 1, "smooth_value": 0, "block_gradient": 0,
                         "line_minimizer": 0, "affine_value_and_gradient": 0}

    @pytest.mark.parametrize("known_l", [False, True])
    def test_aam(self, quad32, known_l):
        l_known = quad32.l_global if known_l else None
        calls = calls_per_iteration(
            quad32.handle(), lambda h, c: run_aam(h, quad32.default_start, c),
            lambda n: SolverConfig(max_iters=n, l_known=l_known))
        # the momentum point v is a step from the last and the record's
        # x_next a block step from y; y is an affine point, and the line
        # search's candidate at 1 is v itself. At k = 6 the known-L run's line
        # minimizer lies below 0, so y is x and no affine point is made
        assert calls == {"value_and_gradient": 0, "step_value_and_gradient": 2,
                         "smooth_value": 0, "line_minimizer": 1, "block_argmin": 1,
                         "block_gradient": 0,
                         "affine_value_and_gradient": 0.8 if known_l else 1}

    def test_fgm(self, quad32):
        calls = calls_per_iteration(
            quad32.handle(), lambda h, c: run_fgm(h, quad32.default_start, c),
            lambda n: SolverConfig(max_iters=n, l_known=quad32.l_global))
        # the momentum point v is a step from the last; y and x are affine
        # points between x and the old and the new v
        assert calls == {"value_and_gradient": 0, "smooth_value": 0, "block_gradient": 0,
                         "block_argmin": 0, "line_minimizer": 0,
                         "affine_value_and_gradient": 2, "step_value_and_gradient": 1}

    def test_fgm_refresh(self, quad32):
        # one fresh evaluation at the start and then one about every
        # REFRESH_STEPS iterations, never more often: only the momentum point
        # is a step, and x and y, affine points between x and v, never reach
        # the count of v's chain
        n = 10 * REFRESH_STEPS
        hc, counts = counted(quad32.handle())
        trace = run_fgm(hc, quad32.default_start, SolverConfig(
            max_iters=n, grad_tolerance=1e-300, l_known=quad32.l_global))
        assert trace.final.k == n
        assert counts["value_and_gradient"] + counts["step_value_and_gradient"] == n + 1
        assert 1 + n / (REFRESH_STEPS + 4) <= counts["value_and_gradient"] <= 1 + n / REFRESH_STEPS

    def test_aam_nonlinear(self, nonlinear20):
        # no line minimizer and no affine or step hook: x_next, v and each
        # probe of the slope search are evaluated once, and nothing calls the
        # value alone
        p = nonlinear20
        calls = calls_per_iteration(
            p.handle(), lambda h, c: run_aam(h, p.default_start, c),
            lambda n: SolverConfig(max_iters=n))
        probes = calls.pop("value_and_gradient") - 2
        assert calls == {"smooth_value": 0, "block_gradient": 0, "block_argmin": 1,
                         "line_minimizer": 0, "affine_value_and_gradient": 0,
                         "step_value_and_gradient": 0}
        assert 0 < probes <= _LINE_SEARCH_MAX_PROBES

    def test_aam_without_hook(self, quad32):
        calls = calls_per_iteration(
            without_hook(quad32.handle()),
            lambda h, c: run_aam(h, quad32.default_start, c),
            lambda n: SolverConfig(max_iters=n))
        # y, x_next and v are each evaluated when made: one value and the
        # gradient of both blocks
        assert calls == {"smooth_value": 3, "block_gradient": 6, "block_argmin": 1,
                         "line_minimizer": 1, "value_and_gradient": 0,
                         "affine_value_and_gradient": 0, "step_value_and_gradient": 0}

    def test_am_and_fgm_without_hook(self, quad32):
        # AM evaluates its iterate; FGM its y, its momentum point v and its x
        h = without_hook(quad32.handle())
        am = calls_per_iteration(h, lambda h, c: run_am(h, quad32.default_start, c),
                                 lambda n: SolverConfig(max_iters=n))
        fgm = calls_per_iteration(h, lambda h, c: run_fgm(h, quad32.default_start, c),
                                  lambda n: SolverConfig(max_iters=n, l_known=quad32.l_global))
        assert (am["smooth_value"], am["block_gradient"], am["block_argmin"]) == (1, 2, 1)
        assert (fgm["smooth_value"], fgm["block_gradient"], fgm["block_argmin"]) == (3, 6, 0)
