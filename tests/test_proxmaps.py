import numpy as np
import pytest

from blockmin import (BlockPartition, L1Term, ObjectiveHandle, SolverConfig,
                      ZeroTerm, check_prox_pl, d_monotonicity_check, prox_map,
                      run_am, soft_threshold)


def l1_handle_2d(grad_vec, gamma):
    """Minimal 4-dim handle: linear smooth part (constant gradient) and an
    l1 term on the first 2-dim block, so the prox model is fully explicit."""
    part = BlockPartition.contiguous([2, 2])
    g = np.asarray(grad_vec, dtype=float)
    return ObjectiveHandle(
        partition=part,
        smooth_value=lambda x: float(g @ x),
        block_gradient=lambda x, i: g[part.blocks[i]].copy(),
        terms=(L1Term(weight=gamma), ZeroTerm()))


def grid_min_model(gi, xi, gamma, m_const, width=3.0, step=1e-4):
    """Dense grid search oracle for the 2-dim block model
    <gi, u - xi> + (M/2)||u - xi||^2 + gamma(||u||_1 - ||xi||_1).

    The model separates per coordinate, so the dense search runs one 1-dim
    grid per coordinate; this stays independent of the prox closed form."""
    total = 0.0
    for j in range(2):
        u = np.arange(xi[j] - width, xi[j] + width, step)
        du = u - xi[j]
        vals = gi[j] * du + 0.5 * m_const * du ** 2 + gamma * (np.abs(u) - abs(xi[j]))
        total += float(vals.min())
    return total


class TestProxMap:
    def test_smooth_collapse(self, quad16, rng):
        h = quad16.handle()
        x = quad16.x_star + rng.standard_normal(16)
        for m_const in (0.5, 2.0, 10.0):
            res = prox_map(h, x, 0, m_const)
            gi = h.block_gradient(x, 0)
            np.testing.assert_allclose(res.t_point, x[:8] - gi / m_const, atol=1e-12)
            np.testing.assert_allclose(res.g_map, gi, atol=1e-12)
            assert res.d_value == pytest.approx(float(gi @ gi), rel=1e-10)

    def test_zero_gradient(self):
        part = BlockPartition.contiguous([2, 2])
        h = ObjectiveHandle(partition=part, smooth_value=lambda x: 1.0,
                            block_gradient=lambda x, i: np.zeros(2))
        res = prox_map(h, np.array([1.0, 2.0, 3.0, 4.0]), 0, 2.0)
        np.testing.assert_allclose(res.t_point, [1.0, 2.0])
        np.testing.assert_allclose(res.g_map, [0.0, 0.0])
        assert res.d_value == pytest.approx(0.0, abs=1e-14)

    def test_l1_soft_threshold_and_grid_oracle(self):
        gamma, m_const = 0.7, 1.5
        x = np.array([0.8, -0.2, 0.0, 0.0])
        g = np.array([-0.9, 0.4, 0.0, 0.0])
        h = l1_handle_2d(g, gamma)
        res = prox_map(h, x, 0, m_const)
        expected_t = soft_threshold(x[:2] - g[:2] / m_const, gamma / m_const)
        np.testing.assert_allclose(res.t_point, expected_t, atol=1e-12)
        oracle = grid_min_model(g[:2], x[:2], gamma, m_const)
        assert res.d_value == pytest.approx(-2 * m_const * oracle, abs=2e-3)

    def test_g_map_identity(self, composite12, rng):
        h = composite12.handle()
        x = rng.standard_normal(12)
        res = prox_map(h, x, 0, 3.0)
        np.testing.assert_allclose(res.g_map, 3.0 * (x[:6] - res.t_point), atol=1e-14)

    def test_d_nonnegative_at_feasible_points(self, composite12, rng):
        h = composite12.handle()
        for _ in range(20):
            x = rng.standard_normal(12)
            assert prox_map(h, x, 0, 1.0).d_value >= -1e-12

    def test_box_block_projection_and_grid_oracle(self, box12):
        h = box12.handle()
        x = box12.default_start
        m_const = 2.0
        res = prox_map(h, x, 0, m_const)
        gi = h.block_gradient(x, 0)
        np.testing.assert_allclose(
            res.t_point, np.clip(x[:6] - gi / m_const, -0.3, 0.3), atol=1e-12)
        assert res.d_value >= -1e-12
        # 1-dim grid oracle per coordinate (model separates over the box)
        total = 0.0
        for j in range(6):
            u = np.arange(-0.3, 0.3 + 1e-9, 1e-5)
            du = u - x[j]
            total += float((gi[j] * du + 0.5 * m_const * du ** 2).min())
        assert res.d_value == pytest.approx(-2 * m_const * total, abs=1e-3)

    def test_rejects_nonpositive_step(self, quad16):
        with pytest.raises(ValueError):
            prox_map(quad16.handle(), quad16.x_star, 0, 0.0)

    def test_missing_prox(self):
        part = BlockPartition.contiguous([1, 1])

        class NoProxTerm:
            is_zero = False
            unconstrained = True
            prox = None

            def value(self, xi):
                return float(np.abs(xi).sum())

        h = ObjectiveHandle(partition=part, smooth_value=lambda x: 0.0,
                            block_gradient=lambda x, i: np.ones(1),
                            terms=(NoProxTerm(), ZeroTerm()))
        with pytest.raises(ValueError, match="no prox operator"):
            prox_map(h, np.zeros(2), 0, 1.0)


def mapping_norm(h, x, i, step):
    """Norm of the block gradient mapping; ~0 right after minimizing block i."""
    return float(np.linalg.norm(prox_map(h, x, i, step).g_map))


class TestStationarity:
    def test_after_block_min(self, quad16):
        h = quad16.handle()
        x = h.exact_block_min(h.evaluate(quad16.default_start), 1)
        g = np.linalg.norm(h.evaluate(x).g)
        assert mapping_norm(h, x, 1, 1.0) <= 1e-7 * (1 + g)

    def test_at_optimum(self, quad16):
        h = quad16.handle()
        for i in range(2):
            assert mapping_norm(h, quad16.x_star, i, 1.0) <= 1e-7

    def test_positive_off_optimum(self, quad16):
        h = quad16.handle()
        x = quad16.x_star + 1.0
        assert mapping_norm(h, x, 0, 1.0) > 1e-3

    def test_along_am_trace(self, composite12):
        h = composite12.handle()
        trace = run_am(h, composite12.default_start, SolverConfig(max_iters=20))
        for rec in trace.records[1:]:
            g = np.linalg.norm(h.evaluate(rec.x).g)
            assert mapping_norm(h, rec.x, rec.block, 2.0) <= 1e-7 * (1 + g)


class TestProxPlCertificate:
    def test_along_quadratic_am_iterates(self, quad16):
        h = quad16.handle()
        trace = run_am(h, quad16.default_start, SolverConfig(max_iters=30))
        rep = check_prox_pl(h, trace, quad16.mu_blocks, quad16.f_star)
        assert len(rep.rows) == 30
        assert rep.passed, f"slack {rep.worst_slack} at k={rep.first_failure}"

    def test_zero_slack_at_optimum(self, quad16):
        h = quad16.handle()
        trace = run_am(h, quad16.x_star, SolverConfig(max_iters=1))
        rep = check_prox_pl(h, trace, quad16.mu_blocks, quad16.f_star)
        assert len(rep.rows) == 1
        assert rep.rows[0].slack == pytest.approx(0.0, abs=1e-9)

    def test_composite_am_iterates(self, composite12):
        h = composite12.handle()
        trace = run_am(h, composite12.default_start, SolverConfig(max_iters=40))
        rep = check_prox_pl(h, trace, composite12.mu_blocks, composite12.f_star)
        assert len(rep.rows) == 40
        assert rep.passed, f"slack {rep.worst_slack} at k={rep.first_failure}"

    def test_requires_optimum(self, quad16):
        h = quad16.handle()
        trace = run_am(h, quad16.default_start, SolverConfig(max_iters=2))
        with pytest.raises(ValueError, match="needs per-block mu_i and F"):
            check_prox_pl(h, trace, quad16.mu_blocks, None)

    def test_two_blocks_only(self):
        # the lemma needs every block but the checked one block-optimal
        part = BlockPartition.contiguous([1, 1, 1])
        h = ObjectiveHandle(partition=part, smooth_value=lambda x: float(x @ x),
                            block_gradient=lambda x, i: 2 * x[part.blocks[i]],
                            block_argmin=lambda p, i: np.where(np.arange(3) == i, 0.0, p.x))
        trace = run_am(h, np.ones(3), SolverConfig(max_iters=3))
        with pytest.raises(ValueError):
            check_prox_pl(h, trace, [1.0, 1.0, 1.0], 0.0)


class TestDMonotonicity:
    def test_smooth_equality(self, quad16, rng):
        h = quad16.handle()
        x = quad16.x_star + rng.standard_normal(16)
        assert d_monotonicity_check(h, x, 0, 0.5, 2.0)
        d1 = prox_map(h, x, 0, 0.5).d_value
        d2 = prox_map(h, x, 0, 2.0).d_value
        assert d1 == pytest.approx(d2, rel=1e-10)

    def test_l1_block(self, composite12, rng):
        h = composite12.handle()
        for _ in range(20):
            x = rng.standard_normal(12)
            assert d_monotonicity_check(h, x, 0, 0.5, 2.0)

    def test_degenerate_lambdas_rejected(self, quad16):
        with pytest.raises(ValueError):
            d_monotonicity_check(quad16.handle(), quad16.x_star, 0, 1.0, 1.0)

    def test_constrained_block_rejected(self, box12):
        with pytest.raises(ValueError, match="is constrained"):
            d_monotonicity_check(box12.handle(), box12.default_start, 0, 0.5, 2.0)


class TestSufficientDecreaseAlongTrace:
    def test_composite(self, composite12):
        from blockmin import check_sufficient_decrease
        h = composite12.handle()
        trace = run_am(h, composite12.default_start, SolverConfig(max_iters=30))
        rep = check_sufficient_decrease(h, trace, composite12.l_blocks)
        assert rep.passed, rep.worst_slack
