import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockmin import (BlockPartition, ObjectiveHandle, SolverConfig,
                      check_aam_Ak, check_aam_recurrence, choose_a_adaptive,
                      choose_a_known_L, exact_line_search,
                      greedy_block, run_aam, run_am, run_fgm)
from blockmin.errors import NoPositiveRoot, SolverError
from blockmin.problems import make_nonlinear_pl, make_quadratic
from blockmin.solvers import _LINE_SEARCH_MAX_PROBES

EPS = np.finfo(float).eps


def explicit_am_iterates(p, x0, sweeps):
    """Closed-form alternating updates for the split quadratic, written
    directly from the four matrix blocks (independent of the solver path)."""
    half = p.W.shape[1] // 2
    A, B = p.W[:half, :half], p.W[:half, half:]
    C, D = p.W[half:, :half], p.W[half:, half:]
    c, d = p.b[:half], p.b[half:]
    m1 = A.T @ A + C.T @ C
    m2 = B.T @ B + D.T @ D
    xs, ys = x0[:half].copy(), x0[half:].copy()
    points = []
    for _ in range(sweeps):
        xs = np.linalg.solve(m1, A.T @ (c - B @ ys) + C.T @ (d - D @ ys))
        points.append(np.concatenate([xs, ys]))
        ys = np.linalg.solve(m2, B.T @ (c - A @ xs) + D.T @ (d - C @ xs))
        points.append(np.concatenate([xs, ys]))
    return points


class TestRunAm:
    def test_matches_explicit_formulas(self, quad16):
        h = quad16.handle()
        trace = run_am(h, quad16.default_start, SolverConfig(max_iters=40))
        expected = explicit_am_iterates(quad16, quad16.default_start, 20)
        for rec, point in zip(trace.records[1:], expected):
            assert np.abs(rec.x - point).max() <= 1e-10

    def test_start_at_optimum(self, quad16):
        h = quad16.handle()
        trace = run_am(h, quad16.x_star, SolverConfig(max_iters=10))
        for rec in trace.records:
            assert rec.composite_value - quad16.f_star <= 1e-10

    def test_monotone_composite_value(self, composite12):
        h = composite12.handle()
        trace = run_am(h, composite12.default_start, SolverConfig(max_iters=30))
        vals = [r.composite_value for r in trace.records]
        for prev, cur in zip(vals, vals[1:]):
            assert cur <= prev + 1e-10 * (1 + abs(prev))

    def test_sweep_contraction(self, quad8):
        h = quad8.handle()
        trace = run_am(h, quad8.default_start, SolverConfig(max_iters=100))
        factor = 1.0
        for li, mi in zip(quad8.l_blocks, quad8.mu_blocks):
            factor *= 1.0 - mi / li
        gaps = [r.composite_value - quad8.f_star for r in trace.sweep_records()]
        for prev, cur in zip(gaps, gaps[1:]):
            assert cur <= factor * prev + 1e-8 * (1 + abs(prev))

    def test_needs_block_solver(self):
        part = BlockPartition.contiguous([1, 1])
        h = ObjectiveHandle(partition=part, smooth_value=lambda x: float(x @ x),
                            block_gradient=lambda x, i: 2 * x[part.blocks[i]])
        with pytest.raises(ValueError, match="needs block_argmin"):
            run_am(h, np.ones(2), SolverConfig())


class TestExactLineSearch:
    def test_equal_points(self, quad16):
        h = quad16.handle()
        beta, y = exact_line_search(h, h.evaluate(quad16.x_star), h.evaluate(quad16.x_star))
        assert beta == 0.0
        np.testing.assert_allclose(y.x, quad16.x_star)

    def test_symmetric_1d(self):
        part = BlockPartition.contiguous([1])
        h = ObjectiveHandle(partition=part, smooth_value=lambda x: float(x[0] ** 2),
                            block_gradient=lambda x, i: 2 * x)
        beta, y = exact_line_search(h, h.evaluate(np.array([1.0])),
                                    h.evaluate(np.array([-1.0])))
        assert beta == pytest.approx(0.5, abs=1e-10)
        assert y.x[0] == pytest.approx(0.0, abs=1e-10)

    def test_slope_search_matches_closed_form(self, quad16, rng):
        # on a quadratic the slope is affine in t, so the search's first
        # secant step is the closed-form minimizer
        p = quad16
        closed = p.handle()
        numeric = ObjectiveHandle(
            partition=closed.partition, smooth_value=closed.smooth_value,
            block_gradient=closed.block_gradient)  # no line_minimizer: slope search
        for _ in range(10):
            x = p.x_star + rng.standard_normal(16)
            v = p.x_star + rng.standard_normal(16)
            d = v - x
            wd = p.W @ d
            beta_star = float(-closed.evaluate(x).g @ d / (2 * wd @ wd))
            beta_star = min(1.0, max(0.0, beta_star))
            b_closed, _ = exact_line_search(closed, closed.evaluate(x), closed.evaluate(v))
            b_slope, _ = exact_line_search(numeric, numeric.evaluate(x), numeric.evaluate(v))
            assert b_closed == pytest.approx(beta_star, abs=1e-10)
            assert b_slope == pytest.approx(beta_star, abs=1e-10)

    def test_never_worse_than_endpoints(self, quad16, rng):
        h = quad16.handle()
        for _ in range(20):
            x = quad16.x_star + rng.standard_normal(16)
            v = quad16.x_star + rng.standard_normal(16)
            _, y = exact_line_search(h, h.evaluate(x), h.evaluate(v))
            assert h.smooth_value(y.x) <= min(h.smooth_value(x), h.smooth_value(v)) + 1e-10

    def test_optimality_inner_product(self, quad16, rng):
        # <grad f(y), v - y> >= 0 up to 1e-8 scaled, in all three cases
        h = quad16.handle()
        for _ in range(30):
            x = quad16.x_star + rng.standard_normal(16)
            v = quad16.x_star + rng.standard_normal(16)
            _, y = exact_line_search(h, h.evaluate(x), h.evaluate(v))
            g = h.evaluate(y.x).g
            scale = np.linalg.norm(g) * np.linalg.norm(v - y.x)
            assert float(g @ (v - y.x)) >= -1e-8 * (1 + scale)


INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(fun, tol=1e-10):
    """Reference minimizer of a unimodal fun on [0, 1] by golden-section search."""
    a, b = 0.0, 1.0
    c, d = b - INV_GOLDEN * (b - a), a + INV_GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - INV_GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_GOLDEN * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


@functools.lru_cache(maxsize=None)
def nonlinear(seed, shape):
    return make_nonlinear_pl(seed, *shape)


def value_rounding(p, x):
    """Bound on the rounding error of p.smooth_value(x), as
    CompositeQuadraticProblem.value_rounding bounds it for least squares: each
    residual is within (n + 2) eps of the sum of its terms' magnitudes s."""
    m = p.n_residuals
    s = np.abs(p.amat) @ np.abs(x) + np.abs(p.c)
    s[:m] += abs(p.eps) * np.abs(np.sin(x[:m]))
    delta = (x.size + 2) * EPS * float(np.linalg.norm(s))
    f = p.smooth_value(x)
    return m * EPS * f + 2.0 * math.sqrt(f) * delta + delta * delta


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st.integers(0, 7), shape=st.sampled_from([(20, 14), (100, 70), (200, 140)]),
       point_seed=st.integers(0, 2**32 - 1),
       scales=st.tuples(*[st.sampled_from([1e-15, 0.1, 0.25, 0.5])] * 2))
@example(seed=0, shape=(200, 140), point_seed=0, scales=(1e-15, 1e-15))
def test_slope_search_on_nonlinear_segments(seed, shape, point_seed, scales):
    # the search reaches the golden-section reference's value to rounding,
    # never rises above either end and stops within its probe cap, also
    # next to the solution (scale 1e-15), where the slopes are rounding noise
    p = nonlinear(seed, shape)
    calls = [0]

    def counted(x):
        calls[0] += 1
        return p.value_and_gradient(x)

    h = dataclasses.replace(p.handle(), value_and_gradient=counted)
    rng = np.random.default_rng(point_seed)
    x, v = (p.x_solution + s * rng.standard_normal(p.x_solution.size) for s in scales)
    a, b = h.evaluate(x), h.evaluate(v)
    calls[0] = 0
    beta, y = exact_line_search(h, a, b)
    assert calls[0] <= _LINE_SEARCH_MAX_PROBES
    assert y.f <= min(a.f, b.f)
    assert y.f == p.smooth_value(y.x)
    assert np.array_equal(y.x, {0.0: x, 1.0: v}.get(beta, x + beta * (v - x)))
    t_ref = golden_section(lambda t: p.smooth_value(x + t * (v - x)))
    x_ref = x + t_ref * (v - x)
    assert y.f <= p.smooth_value(x_ref) + value_rounding(p, x_ref) + value_rounding(p, y.x)


class TestGreedyBlock:
    @staticmethod
    def gradient_handle(g, sizes):
        part = BlockPartition.contiguous(sizes)
        g = np.asarray(g, dtype=float)
        return ObjectiveHandle(partition=part, smooth_value=lambda x: float(g @ x),
                               block_gradient=lambda x, i: g[part.blocks[i]].copy())

    def test_picks_larger_block(self):
        h = self.gradient_handle([3.0, 0.0, 0.0, 4.0], [2, 2])
        assert greedy_block(h, h.evaluate(np.zeros(4)).g) == 1

    def test_tie_breaks_low_index(self):
        h = self.gradient_handle([0.0, 0.0, 0.0, 0.0], [2, 2])
        assert greedy_block(h, np.zeros(4)) == 0

    def test_matches_brute_force(self, rng):
        g = rng.standard_normal(12)
        sizes = [3, 3, 3, 3]
        h = self.gradient_handle(g, sizes)
        norms = [np.linalg.norm(g[i * 3:(i + 1) * 3]) for i in range(4)]
        assert greedy_block(h, h.evaluate(np.zeros(12)).g) == int(np.argmax(norms))

    def test_norm_share_guarantee(self, rng):
        g = rng.standard_normal(12)
        h = self.gradient_handle(g, [3, 3, 3, 3])
        i = greedy_block(h, h.evaluate(np.zeros(12)).g)
        gi = g[i * 3:(i + 1) * 3]
        assert float(gi @ gi) >= float(g @ g) / 4 - 1e-12


class TestCoefficientRules:
    def test_known_l_first_step(self):
        a = choose_a_known_L(0.0, 1.0, 0.0, 1.0, 2)
        assert a == pytest.approx(0.5, abs=1e-12)  # A_1 = 1/(nL)

    def test_known_l_zero_a_sum_closed_form(self):
        for l_const, n in ((2.0, 3), (10.0, 2)):
            a = choose_a_known_L(0.0, 1.0, 0.0, l_const, n)
            assert a == pytest.approx(1.0 / (l_const * n), rel=1e-12)

    def test_known_l_ratio_residual(self):
        a_sum, tau, mu, l_const, n = 3.0, 1.6, 0.2, 2.0, 2
        a = choose_a_known_L(a_sum, tau, mu, l_const, n)
        ratio = a * a / ((a_sum + a) * (tau + mu * a))
        assert ratio == pytest.approx(1.0 / (l_const * n), rel=1e-10)

    def test_adaptive_substitute_back(self, quad16):
        h = quad16.handle()
        rng = np.random.default_rng(0)
        y = quad16.x_star + rng.standard_normal(16)
        x_next = h.exact_block_min(h.evaluate(y), 0)
        v = quad16.x_star + rng.standard_normal(16)
        for mu in (0.0, quad16.mu_global):
            a_sum, tau = 0.7, 1.0 + mu * 0.7
            a = choose_a_adaptive(h.smooth_value(y), h.smooth_value(x_next),
                                  h.evaluate(y).g, y, a_sum, tau, mu, v)
            g = h.evaluate(y).g
            gsq = float(g @ g)
            vsq = float((v - y) @ (v - y))
            denom = 2.0 * (a_sum + a) * (tau + mu * a)
            lhs = h.smooth_value(y) - a * a * gsq / denom + mu * tau * a * vsq / denom
            assert lhs == pytest.approx(h.smooth_value(x_next), rel=1e-10)

    def test_adaptive_dominates_known_l(self, quad16):
        # exact block minimization decreases at least as much as the 1/(2Ln)
        # gradient step, so the measured-decrease coefficient is larger
        h = quad16.handle()
        rng = np.random.default_rng(1)
        y = quad16.x_star + rng.standard_normal(16)
        i = greedy_block(h, h.evaluate(y).g)
        x_next = h.exact_block_min(h.evaluate(y), i)
        a_known = choose_a_known_L(0.0, 1.0, 0.0, quad16.l_global, 2)
        a_adapt = choose_a_adaptive(h.smooth_value(y), h.smooth_value(x_next),
                                    h.evaluate(y).g, y, 0.0, 1.0, 0.0, y)
        assert a_adapt >= a_known - 1e-12

    def test_adaptive_no_positive_root_when_converged(self, quad16):
        h = quad16.handle()
        y = quad16.x_star + np.ones(16)  # f(y) == f(x_next), gradient nonzero
        with pytest.raises(NoPositiveRoot):
            choose_a_adaptive(h.smooth_value(y), h.smooth_value(y), h.evaluate(y).g,
                              y, 0.0, 1.0, 0.0, y)


# coefficients of the cleared coefficient equations, log-uniform over 1e-30..1e30
LOG_UNIFORM = st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e)


def residual_ratio(lead, lin, const, a):
    """|lead a^2 - lin a - const| relative to the sum of its term magnitudes."""
    return abs((lead * a - lin) * a - const) / (lead * a * a + lin * a + const)


class TestCoefficientRoot:
    """With lead > 0 and lin, const >= 0 the root formula alone solves the
    cleared equation to rounding: no refinement step is needed."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(LOG_UNIFORM, LOG_UNIFORM, LOG_UNIFORM)
    def test_adaptive_root_residual(self, lead, lin, const):
        # mu = 0, tau = 1: lead = ||grad_y||^2, lin = 2 delta, const = 2 delta A
        grad_y = np.array([np.sqrt(lead)])
        delta, a_sum = 0.5 * lin, const / lin
        a = choose_a_adaptive(delta, 0.0, grad_y, np.zeros(1), a_sum, 1.0, 0.0,
                              np.zeros(1))
        coeffs = float(grad_y @ grad_y), 2.0 * delta, 2.0 * delta * a_sum
        assert residual_ratio(*coeffs, a) <= 1e-12

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(LOG_UNIFORM, st.floats(0.0, 30.0).map(lambda e: 10.0 ** e), LOG_UNIFORM,
           st.integers(1, 16))
    def test_known_l_root_residual(self, l_const, tau, const, n_blocks):
        # mu = 0: lead = L n, lin = tau (>= 1 by the rule's contract), const = A tau
        a_sum = const / tau
        a = choose_a_known_L(a_sum, tau, 0.0, l_const, n_blocks)
        assert residual_ratio(l_const * n_blocks, tau, a_sum * tau, a) <= 1e-12


class TestRunAam:
    @pytest.mark.parametrize("mu_mode,rule", [
        ("zero", "adaptive"), ("zero", "known"),
        ("star", "adaptive"), ("star", "known")])
    def test_trace_invariants(self, quad16, mu_mode, rule):
        p = quad16
        mu = 0.0 if mu_mode == "zero" else p.mu_global
        cfg = SolverConfig(max_iters=80, mu_assumed=mu,
                           l_known=p.l_global if rule == "known" else None)
        h = p.handle()
        trace = run_aam(h, p.default_start, cfg)
        recs = trace.records
        assert len(recs) > 40
        r_sq = float((p.default_start - p.x_star) @ (p.default_start - p.x_star))
        for prev, rec in zip(recs, recs[1:]):
            assert rec.a_sum > prev.a_sum  # A_k strictly increasing
            assert rec.tau == pytest.approx(1.0 + mu * rec.a_sum, abs=1e-12)
            # ordering f(x^{k+1}) <= f(y^k) <= f(x^k)
            assert rec.f_y <= prev.composite_value + 1e-10 * (1 + abs(prev.composite_value))
            assert rec.composite_value <= rec.f_y + 1e-10 * (1 + abs(rec.f_y))
            # line-search optimality <grad f(y), v_prev - y> >= 0
            vy = (prev.v - rec.y)
            lhs = float(rec.grad_y @ vy)
            scale = np.linalg.norm(rec.grad_y) * np.linalg.norm(vy)
            assert lhs >= -1e-8 * (1 + scale)
            # gap bound f(x^k) - f* <= R^2 / (2 A_k)
            assert rec.composite_value - p.f_star <= r_sq / (2 * rec.a_sum) + 1e-8

    def test_estimating_sequence_recurrence(self, quad16):
        p = quad16
        for mu in (0.0, p.mu_global):
            cfg = SolverConfig(max_iters=60, mu_assumed=mu)
            trace = run_aam(p.handle(), p.default_start, cfg)
            rep = check_aam_recurrence(trace, mu)
            assert rep.passed, rep.worst_slack

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(problem=st.sampled_from(["quadratic", "nonlinear"]), mu_star=st.booleans(),
           known_l=st.booleans(), max_iters=st.integers(1, 60), start_seed=st.integers(0, 99))
    def test_momentum_point_minimizes_lower_model(self, quad16, nonlinear20, problem,
                                                  mu_star, known_l, max_iters, start_seed):
        # v^k zeroes grad psi_k(v) = (v - x^0) + sum_{j<=k} a_j (g_j + mu (v - y_j)),
        # to rounding relative to the size of its terms. The identity holds for
        # any coefficients, so the nonlinear fixture, which knows no L, runs
        # the known-L rule with the Gauss-Newton bound 2 (||A|| + |eps|)^2
        if problem == "quadratic":
            p, mu, l_const = quad16, quad16.mu_global, quad16.l_global
        else:
            p, mu = nonlinear20, nonlinear20.pl_constant
            l_const = 2.0 * (np.linalg.norm(p.amat, 2) + abs(p.eps)) ** 2
        mu = mu if mu_star else 0.0
        rng = np.random.default_rng(start_seed)
        x0 = p.default_start + rng.standard_normal(p.default_start.size)
        cfg = SolverConfig(max_iters=max_iters, mu_assumed=mu,
                           l_known=l_const if known_l else None)
        recs = run_aam(p.handle(), x0, cfg).records
        for k in range(1, len(recs)):
            v, steps = recs[k].v, recs[1:k + 1]
            grad = (v - x0) + sum(r.a * (r.grad_y + mu * (v - r.y)) for r in steps)
            scale = np.linalg.norm(v) + np.linalg.norm(x0) + sum(
                r.a * (np.linalg.norm(r.grad_y) + mu * (np.linalg.norm(v) + np.linalg.norm(r.y)))
                for r in steps)
            assert np.linalg.norm(grad) <= 4.0 * k * EPS * scale, k

    def test_a_growth(self, quad16):
        p = quad16
        cfg = SolverConfig(max_iters=60, mu_assumed=p.mu_global, l_known=p.l_global)
        trace = run_aam(p.handle(), p.default_start, cfg)
        rep = check_aam_Ak(trace, p.l_global, p.mu_global, 2)
        assert rep.passed, rep.worst_slack

    def test_start_at_optimum_stops(self, quad16):
        trace = run_aam(quad16.handle(), quad16.x_star, SolverConfig(max_iters=50))
        assert trace.status in ("grad_tolerance", "converged")
        assert len(trace.records) == 1

    @pytest.mark.parametrize("mu,status,iters", [
        (100.0, "max_iters", 50), (200.0, "mu_too_large", 0),
        (399.0, "mu_too_large", 0), (1e9, "mu_too_large", 0)])
    def test_mu_above_the_pl_modulus(self, mu, status, iters):
        # mu_global = 2 and n L = 400. From mu = 200 the adaptive equation has
        # no positive root at k = 1 (A = 0) although f has measurably fallen;
        # at mu = 100 it keeps one and the run goes on
        p = make_quadratic(0, 16, 100.0)
        trace = run_aam(p.handle(), p.default_start,
                        SolverConfig(max_iters=50, mu_assumed=mu))
        assert (trace.status, trace.final.k) == (status, iters)

    def test_rejects_composite(self, composite12):
        with pytest.raises(SolverError, match="supports g == 0 only"):
            run_aam(composite12.handle(), composite12.default_start, SolverConfig())

    def test_greedy_choice_recorded(self, quad16):
        trace = run_aam(quad16.handle(), quad16.default_start, SolverConfig(max_iters=20))
        assert all(r.block in (0, 1) for r in trace.records[1:])


class TestRunFgm:
    def test_zero_gradient_stays(self, quad16):
        trace = run_fgm(quad16.handle(), quad16.x_star, SolverConfig(max_iters=10))
        assert trace.status == "grad_tolerance"
        np.testing.assert_allclose(trace.final.x, quad16.x_star)

    def test_one_exact_step_1d(self):
        lconst = 4.0
        part = BlockPartition.contiguous([1])
        h = ObjectiveHandle(partition=part,
                            smooth_value=lambda x: 0.5 * lconst * float(x[0] ** 2),
                            block_gradient=lambda x, i: lconst * x,
                            l_global=lconst)
        trace = run_fgm(h, np.array([1.0]), SolverConfig(max_iters=1))
        assert trace.records[1].x[0] == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_decay_slope(self):
        p = make_quadratic(seed=42, dim=32, cond_number=100.0)
        trace = run_fgm(p.handle(), p.default_start, SolverConfig(max_iters=200))
        gaps = np.array([r.composite_value - p.f_star for r in trace.records])
        ks = np.arange(10, 201)
        slope = np.polyfit(np.log(ks), np.log(gaps[10:201]), 1)[0]
        assert slope <= -1.8

    def test_missing_l(self, nonlinear20):
        with pytest.raises(SolverError, match="needs a known L"):
            run_fgm(nonlinear20.handle(), nonlinear20.default_start, SolverConfig())

    def test_accelerated(self):
        # gradient descent with step 1/L takes 757 iterations to this gap
        p = make_quadratic(1, 256, 100.0)
        trace = run_fgm(p.handle(), p.default_start,
                        SolverConfig(max_iters=500, target_gap=1e-6, l_known=p.l_global))
        assert trace.status == "target_gap"

    def test_similar_triangles(self, quad16):
        # y = x + t (v - x) and x' = x + t (v' - x) = y - grad f(y) / L with
        # t = a / A'. Records hold x, v and the scalars only
        h = quad16.handle()
        lconst = quad16.l_global
        trace = run_fgm(h, quad16.default_start, SolverConfig(max_iters=30, l_known=lconst))
        assert trace.status == "max_iters"
        r0 = trace.records[0]
        assert (r0.a, r0.a_sum, r0.tau) == (0.0, 0.0, 1.0)
        for prev, rec in zip(trace.records, trace.records[1:]):
            assert rec.y is None and rec.grad_y is None
            assert rec.a == choose_a_known_L(prev.a_sum, prev.tau, 0.0, lconst, 1)
            assert rec.a_sum == prev.a_sum + rec.a and rec.tau == 1.0
            t = rec.a / rec.a_sum
            y = prev.x + t * (prev.v - prev.x)
            g = h.evaluate(y).g
            scale = 1.0 + np.abs(prev.v).max() + np.abs(y).max()
            assert np.abs(rec.v - (prev.v - rec.a * g)).max() <= 1e-12 * scale, rec.k
            assert np.abs(rec.x - (prev.x + t * (rec.v - prev.x))).max() <= 1e-12 * scale, rec.k
            assert np.abs(rec.x - (y - g / lconst)).max() <= 1e-12 * scale, rec.k

    def test_recorded_gaps_track_fresh_evaluations(self):
        # x is an affine point every iteration and never a step, so its f and
        # g come from the momentum point's chain, which is refreshed. Made
        # from the last x instead, f would keep the rounding of the early,
        # large values (f* is 0 to rounding here)
        p = make_quadratic(0, 256, 100.0)
        h = p.handle()
        trace = run_fgm(h, p.default_start, SolverConfig(
            max_iters=1100, grad_tolerance=1e-300, l_known=p.l_global))
        assert trace.final.k == 1100
        for r in trace.records:
            fresh = h.evaluate(r.x).f - p.f_star
            assert abs(r.composite_value - p.f_star - fresh) <= 1e-6 * abs(fresh) + 1e-20, r.k

    def test_mu_assumed_rejected(self, quad16):
        with pytest.raises(SolverError, match="mu_assumed == 0 only"):
            run_fgm(quad16.handle(), quad16.default_start, SolverConfig(mu_assumed=1.0))


class TestStopping:
    def test_target_gap(self, quad16):
        cfg = SolverConfig(max_iters=500, target_gap=1e-6)
        trace = run_aam(quad16.handle(), quad16.default_start, cfg)
        assert trace.status == "target_gap"
        assert trace.final.composite_value - quad16.f_star <= 1e-6

    def test_am_target_gap(self, quad16):
        cfg = SolverConfig(max_iters=500, target_gap=1e-6)
        trace = run_am(quad16.handle(), quad16.default_start, cfg)
        assert trace.status == "target_gap"

    @pytest.mark.parametrize("run", [run_am, run_aam, run_fgm])
    def test_target_met_at_max_iters(self, quad16, run):
        # the stop order is target_gap, then max_iters, at every k
        full = run(quad16.handle(), quad16.default_start,
                   SolverConfig(max_iters=1000, target_gap=1e-6))
        assert full.status == "target_gap"
        capped = run(quad16.handle(), quad16.default_start,
                     SolverConfig(max_iters=full.final.k, target_gap=1e-6))
        assert (capped.status, len(capped.records)) == ("target_gap", len(full.records))

    def test_am_gradient_checked_by_the_next_iteration(self):
        # f = ||x||^2 / 2 over two singleton blocks: the sweep ends at x = 0,
        # so the record at k = 2 has a zero gradient. The iteration after it
        # checks the gradient, so a run that stops at k = 2 reports max_iters
        part = BlockPartition.contiguous([1, 1])
        h = ObjectiveHandle(partition=part, smooth_value=lambda x: 0.5 * float(x @ x),
                            block_gradient=lambda x, i: x[part.blocks[i]].copy(),
                            block_argmin=lambda p, i: np.zeros(1))
        for max_iters, status in ((2, "max_iters"), (3, "grad_tolerance")):
            trace = run_am(h, np.array([1.0, 2.0]), SolverConfig(max_iters=max_iters))
            assert (trace.status, trace.final.k, trace.final.grad_norm) == (status, 2, 0.0)

    @pytest.mark.parametrize("run", [run_am, run_aam, run_fgm])
    def test_start_at_optimum(self, quad16, run):
        # a target met by x^0 ends the run at k = 0 before any iteration;
        # without one the iteration's gradient check ends it there
        for cfg, status in ((SolverConfig(max_iters=50, target_gap=1e-6), "target_gap"),
                            (SolverConfig(max_iters=50), "grad_tolerance")):
            trace = run(quad16.handle(), quad16.x_star, cfg)
            assert (trace.status, trace.final.k) == (status, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(grad_tolerance=0.0)
        # NaN fails every range check
        nan = float("nan")
        for bad in (dict(grad_tolerance=nan), dict(target_gap=nan),
                    dict(mu_assumed=nan),
                    dict(l_known=nan), dict(l_known=0.0), dict(l_known=-1.0),
                    dict(mu_assumed=2.0, l_known=1.0)):
            with pytest.raises(ValueError):
                SolverConfig(**bad)


class TestNonlinearAam:
    def test_converges_and_monotone(self, nonlinear20):
        h = nonlinear20.handle()
        trace = run_aam(h, nonlinear20.default_start, SolverConfig(max_iters=60))
        fs = [r.composite_value for r in trace.records]
        assert fs[-1] <= 1e-12 * (1 + fs[0])
        for prev, cur in zip(fs, fs[1:]):
            assert cur <= prev + 1e-10 * (1 + abs(prev))
