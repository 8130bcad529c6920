import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmin import (BlockPartition, ObjectiveHandle, SolverConfig,
                      check_aam_Ak, check_aam_recurrence, choose_a_adaptive,
                      choose_a_known_L, exact_line_search, golden_section,
                      greedy_block, run_aam, run_am, run_fgm)
from blockmin.errors import (MissingL, NoBlockSolver, NonSmoothUnsupported,
                             NoPositiveRoot)
from blockmin.problems import make_quadratic


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
        with pytest.raises(NoBlockSolver):
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
                                    h.evaluate(np.array([-1.0])), tol=1e-12)
        assert beta == pytest.approx(0.5, abs=1e-10)
        assert y.x[0] == pytest.approx(0.0, abs=1e-10)

    def test_golden_matches_closed_form(self, quad16, rng):
        p = quad16
        closed = p.handle()
        numeric = ObjectiveHandle(
            partition=closed.partition, smooth_value=closed.smooth_value,
            block_gradient=closed.block_gradient)  # no line_minimizer: golden path
        for _ in range(10):
            x = p.x_star + rng.standard_normal(16)
            v = p.x_star + rng.standard_normal(16)
            d = v - x
            wd = p.W @ d
            beta_star = float(-closed.full_gradient(x) @ d / (2 * wd @ wd))
            beta_star = min(1.0, max(0.0, beta_star))
            b_closed, _ = exact_line_search(closed, closed.evaluate(x), closed.evaluate(v))
            b_gold, _ = exact_line_search(numeric, numeric.evaluate(x), numeric.evaluate(v),
                                          tol=1e-12)
            assert b_closed == pytest.approx(beta_star, abs=1e-8)
            assert b_gold == pytest.approx(beta_star, abs=1e-8)

    def test_never_worse_than_endpoints(self, quad16, rng):
        h = quad16.handle()
        for _ in range(20):
            x = quad16.x_star + rng.standard_normal(16)
            v = quad16.x_star + rng.standard_normal(16)
            _, y = exact_line_search(h, h.evaluate(x), h.evaluate(v))
            assert h.smooth_value(y.x) <= min(h.smooth_value(x), h.smooth_value(v)) + 1e-10

    def test_golden_section_quadratic(self):
        t = golden_section(lambda s: (s - 0.3) ** 2, 0.0, 1.0, tol=1e-12)
        assert t == pytest.approx(0.3, abs=1e-10)

    def test_optimality_inner_product(self, quad16, rng):
        # <grad f(y), v - y> >= 0 up to 1e-8 scaled, in all three cases
        h = quad16.handle()
        for _ in range(30):
            x = quad16.x_star + rng.standard_normal(16)
            v = quad16.x_star + rng.standard_normal(16)
            _, y = exact_line_search(h, h.evaluate(x), h.evaluate(v))
            g = h.full_gradient(y.x)
            scale = np.linalg.norm(g) * np.linalg.norm(v - y.x)
            assert float(g @ (v - y.x)) >= -1e-8 * (1 + scale)


class TestGreedyBlock:
    @staticmethod
    def gradient_handle(g, sizes):
        part = BlockPartition.contiguous(sizes)
        g = np.asarray(g, dtype=float)
        return ObjectiveHandle(partition=part, smooth_value=lambda x: float(g @ x),
                               block_gradient=lambda x, i: g[part.blocks[i]].copy())

    def test_picks_larger_block(self):
        h = self.gradient_handle([3.0, 0.0, 0.0, 4.0], [2, 2])
        assert greedy_block(h, h.full_gradient(np.zeros(4))) == 1

    def test_tie_breaks_low_index(self):
        h = self.gradient_handle([0.0, 0.0, 0.0, 0.0], [2, 2])
        assert greedy_block(h, np.zeros(4)) == 0

    def test_matches_brute_force(self, rng):
        g = rng.standard_normal(12)
        sizes = [3, 3, 3, 3]
        h = self.gradient_handle(g, sizes)
        norms = [np.linalg.norm(g[i * 3:(i + 1) * 3]) for i in range(4)]
        assert greedy_block(h, h.full_gradient(np.zeros(12))) == int(np.argmax(norms))

    def test_norm_share_guarantee(self, rng):
        g = rng.standard_normal(12)
        h = self.gradient_handle(g, [3, 3, 3, 3])
        i = greedy_block(h, h.full_gradient(np.zeros(12)))
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
                                  h.full_gradient(y), y, a_sum, tau, mu, v)
            g = h.full_gradient(y)
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
        i = greedy_block(h, h.full_gradient(y))
        x_next = h.exact_block_min(h.evaluate(y), i)
        a_known = choose_a_known_L(0.0, 1.0, 0.0, quad16.l_global, 2)
        a_adapt = choose_a_adaptive(h.smooth_value(y), h.smooth_value(x_next),
                                    h.full_gradient(y), y, 0.0, 1.0, 0.0, y)
        assert a_adapt >= a_known - 1e-12

    def test_adaptive_no_positive_root_when_converged(self, quad16):
        h = quad16.handle()
        y = quad16.x_star + np.ones(16)  # f(y) == f(x_next), gradient nonzero
        with pytest.raises(NoPositiveRoot):
            choose_a_adaptive(h.smooth_value(y), h.smooth_value(y), h.full_gradient(y),
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

    def test_incremental_psi_matches_direct(self, quad16):
        p = quad16
        mu = p.mu_global
        trace = run_aam(p.handle(), p.default_start,
                        SolverConfig(max_iters=50, mu_assumed=mu))
        recs = trace.records
        x0 = recs[0].x
        for k in (1, 10, 25, len(recs) - 1):
            v = recs[k].v
            psi = 0.5 * float((v - x0) @ (v - x0))
            for j in range(1, k + 1):
                dev = v - recs[j].y
                psi += recs[j].a * (recs[j].f_y + float(recs[j].grad_y @ dev)
                                    + 0.5 * mu * float(dev @ dev))
            assert recs[k].psi_min == pytest.approx(psi, rel=1e-8, abs=1e-8)

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

    def test_momentum_rules_coincide_for_mu_zero(self, quad8):
        p = quad8
        t1 = run_aam(p.handle(), p.default_start,
                     SolverConfig(max_iters=30, momentum_rule="proof"))
        t2 = run_aam(p.handle(), p.default_start,
                     SolverConfig(max_iters=30, momentum_rule="literal"))
        for r1, r2 in zip(t1.records, t2.records):
            np.testing.assert_allclose(r1.x, r2.x, atol=1e-12)
            if r1.v is not None:
                np.testing.assert_allclose(r1.v, r2.v, atol=1e-12)

    def test_rejects_composite(self, composite12):
        with pytest.raises(NonSmoothUnsupported):
            run_aam(composite12.handle(), composite12.default_start, SolverConfig())

    def test_literal_momentum_with_mu_measurable(self, quad8):
        # measurement switch: with mu > 0 the plain momentum update departs
        # from the model minimizer and can run away entirely; the solver must
        # stop cleanly with finite records rather than propagate overflow
        p = quad8
        cfg_lit = SolverConfig(max_iters=30, mu_assumed=p.mu_global,
                               momentum_rule="literal")
        cfg_prf = SolverConfig(max_iters=30, mu_assumed=p.mu_global,
                               momentum_rule="proof")
        t_lit = run_aam(p.handle(), p.default_start, cfg_lit)
        t_prf = run_aam(p.handle(), p.default_start, cfg_prf)
        assert all(np.isfinite(r.composite_value) for r in t_lit.records)
        assert all(np.all(np.isfinite(r.v)) for r in t_lit.records[1:])
        drift = max(float(np.abs(a.v - b.v).max())
                    for a, b in zip(t_lit.records[1:], t_prf.records[1:]))
        assert drift > 1e-8
        assert t_prf.status != "diverged"
        if t_lit.status == "diverged":
            assert len(t_lit.records) >= 2  # stopped after, not during, damage

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
        with pytest.raises(MissingL):
            run_fgm(nonlinear20.handle(), nonlinear20.default_start, SolverConfig())


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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(grad_tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(momentum_rule="sometimes")
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
