import numpy as np
import pytest

from blockmin import BlockPartition, L1Term, ObjectiveHandle, ZeroTerm


def central_fd_gradient(fun, x, step=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (fun(x + e) - fun(x - e)) / (2 * step)
    return g


def simple_handle():
    """f(x) = 0.5 ||x||^2 over two singleton blocks."""
    part = BlockPartition.contiguous([1, 1])
    return ObjectiveHandle(
        partition=part,
        smooth_value=lambda x: 0.5 * float(x @ x),
        block_gradient=lambda x, i: x[part.blocks[i]].copy(),
        block_argmin=lambda p, i: np.zeros_like(p.x))


class TestBlockPartition:
    def test_valid(self):
        p = BlockPartition.contiguous([2, 3])
        assert p.total_dim == 5 and p.n_blocks == 2 and p.blocks[1].size == 3

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            BlockPartition(total_dim=3, blocks=(np.array([0, 1]), np.array([1, 2])))

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            BlockPartition(total_dim=3, blocks=(np.array([0]), np.array([2])))

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            BlockPartition(total_dim=2, blocks=(np.array([0, 1]), np.array([], dtype=int)))


class TestFullGradient:
    """The full gradient a Point carries, h.evaluate(x).g."""

    def test_half_norm_squared(self):
        h = simple_handle()
        np.testing.assert_allclose(h.evaluate(np.array([1.0, 2.0])).g, [1.0, 2.0])

    def test_constant_objective(self):
        part = BlockPartition.contiguous([1, 1])
        h = ObjectiveHandle(partition=part, smooth_value=lambda x: 7.0,
                            block_gradient=lambda x, i: np.zeros(1))
        np.testing.assert_allclose(h.evaluate(np.array([3.0, -1.0])).g, [0.0, 0.0])

    def test_matches_finite_differences(self, quad16, rng):
        h = quad16.handle()
        x = quad16.x_star + rng.standard_normal(16)
        g = h.evaluate(x).g
        fd = central_fd_gradient(h.smooth_value, x)
        assert np.abs(g - fd).max() <= 1e-5 * (1 + np.abs(g).max())

    def test_dimension_check(self, quad16):
        with pytest.raises(ValueError, match=r"point has shape \(7,\)"):
            quad16.handle().evaluate(np.zeros(7))

    def test_scattered_partition(self):
        # non-contiguous blocks must place block gradients at their indices
        part = BlockPartition(total_dim=4, blocks=(np.array([0, 2]), np.array([1, 3])))
        h = ObjectiveHandle(partition=part,
                            smooth_value=lambda x: 0.5 * float(x @ x),
                            block_gradient=lambda x, i: x[part.blocks[i]].copy())
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(h.evaluate(x).g, x)


class TestCompositeValue:
    def test_zero_terms_equal_smooth(self, quad16, rng):
        h = quad16.handle()
        x = rng.standard_normal(16)
        assert h.composite_value(x) == pytest.approx(h.smooth_value(x))

    def test_l1_by_hand(self):
        part = BlockPartition.contiguous([2, 2])
        h = ObjectiveHandle(partition=part, smooth_value=lambda x: 0.0,
                            block_gradient=lambda x, i: np.zeros(2),
                            terms=(L1Term(weight=1.0), ZeroTerm()))
        assert h.composite_value(np.array([-1.0, 2.0, 9.0, 9.0])) == pytest.approx(3.0)

    def test_lasso_terms_resummed(self, composite12, rng):
        h = composite12.handle()
        x = rng.standard_normal(12)
        # independent re-sum of the pieces
        r = composite12.W @ x - composite12.b
        expected = float(r @ r) + 0.4 * np.abs(x[:6]).sum()
        assert h.composite_value(x) == pytest.approx(expected, rel=1e-12)


class TestExactBlockMin:
    def test_explicit_formula(self, quad16, rng):
        # block-1 minimizer equals the closed-form normal-equations update
        p = quad16
        half = 8
        x = p.x_star + rng.standard_normal(16)
        h = p.handle()
        z = h.exact_block_min(h.evaluate(x), 0)
        Wx, Wy = p.W[:, :half], p.W[:, half:]
        m1 = Wx.T @ Wx
        rhs = Wx.T @ (p.b - Wy @ x[half:])
        np.testing.assert_allclose(z[:half], np.linalg.solve(m1, rhs), atol=1e-10)
        np.testing.assert_allclose(z[half:], x[half:])

    def test_identity_w_zero_b(self):
        from blockmin import QuadraticSplitProblem
        p = QuadraticSplitProblem.from_matrix(np.eye(4), np.zeros(4))
        h = p.handle()
        z = h.exact_block_min(h.evaluate(np.array([1.0, -2.0, 3.0, 4.0])), 0)
        np.testing.assert_allclose(z, [0.0, 0.0, 3.0, 4.0], atol=1e-14)

    def test_against_restricted_solve(self, rng):
        from blockmin import QuadraticSplitProblem
        w = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        b = rng.standard_normal(4)
        p = QuadraticSplitProblem.from_matrix(w, b)
        h = p.handle()
        x = rng.standard_normal(4)
        for i, sl in ((0, slice(0, 2)), (1, slice(2, 4))):
            z = h.exact_block_min(h.evaluate(x), i)
            cols = w[:, sl]
            fixed = x.copy()
            fixed[sl] = 0.0
            direct = np.linalg.solve(cols.T @ cols, cols.T @ (b - w @ fixed))
            np.testing.assert_allclose(z[sl], direct, atol=1e-10)

    def test_idempotent(self, quad16, rng):
        h = quad16.handle()
        x = quad16.x_star + rng.standard_normal(16)
        once = h.exact_block_min(h.evaluate(x), 1)
        twice = h.exact_block_min(h.evaluate(once), 1)
        assert abs(h.composite_value(twice) - h.composite_value(once)) <= 1e-12

    def test_idempotent_composite_blocks(self, composite12, box12):
        for prob in (composite12, box12):
            h = prob.handle()
            x = prob.default_start
            for i in range(2):
                once = h.exact_block_min(h.evaluate(x), i)
                twice = h.exact_block_min(h.evaluate(once), i)
                assert abs(h.composite_value(twice) - h.composite_value(once)) <= 1e-12

    def test_improves_over_perturbations(self, composite12, rng):
        h = composite12.handle()
        x = composite12.default_start
        z = h.exact_block_min(h.evaluate(x), 0)
        idx = h.partition.blocks[0]
        fz = h.composite_value(z)
        for _ in range(50):
            pert = z.copy()
            pert[idx] += 0.1 * rng.standard_normal(idx.size)
            assert fz <= h.composite_value(pert) + 1e-9

    def test_missing_solver(self):
        part = BlockPartition.contiguous([1, 1])
        h = ObjectiveHandle(partition=part, smooth_value=lambda x: 0.0,
                            block_gradient=lambda x, i: np.zeros(1))
        with pytest.raises(ValueError, match="no block minimizer"):
            h.exact_block_min(h.evaluate(np.zeros(2)), 0)


class TestDeclaredConstants:
    @pytest.mark.parametrize("which", ["quadratic", "composite"])
    def test_two_point_inequalities(self, which, quad16, composite12, rng):
        prob = quad16 if which == "quadratic" else composite12
        h = prob.handle()
        mu, lconst = prob.mu_global, prob.l_global
        dim = h.dim
        for _ in range(100):
            x = rng.standard_normal(dim)
            y = rng.standard_normal(dim)
            fx, fy = h.smooth_value(x), h.smooth_value(y)
            lin = fx + h.evaluate(x).g @ (y - x)
            dist = float((y - x) @ (y - x))
            assert fy >= lin + 0.5 * mu * dist - 1e-9 * (1 + abs(fy))
            assert fy <= lin + 0.5 * lconst * dist + 1e-9 * (1 + abs(fy))

    def test_invalid_constants_rejected(self):
        part = BlockPartition.contiguous([1, 1])
        with pytest.raises(ValueError):
            ObjectiveHandle(partition=part, smooth_value=lambda x: 0.0,
                            block_gradient=lambda x, i: np.zeros(1),
                            l_global=1.0, mu_global=2.0)
