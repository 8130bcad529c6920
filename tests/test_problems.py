from fractions import Fraction

import numpy as np
import pytest

from blockmin import (BlockPartition, CompositeQuadraticProblem, L1Term, SolverConfig,
                      ZeroTerm, make_composite, make_nonlinear_pl, make_quadratic,
                      make_rank_deficient, prox_map, run_aam, run_am)
from blockmin import linalg, problems
from blockmin.linalg import spectral_extremes


def central_fd_jacobian(fun, x, m, step=1e-6):
    jac = np.zeros((m, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        jac[:, j] = (fun(x + e) - fun(x - e)) / (2 * step)
    return jac


class TestMakeQuadratic:
    def test_condition_number(self):
        p = make_quadratic(seed=42, dim=8, cond_number=300.0)
        lo, hi = spectral_extremes(p.W.T @ p.W)
        assert hi / lo == pytest.approx(300.0, rel=1e-6)

    def test_optimum_matches_dense_solve(self, quad16):
        expected = np.linalg.solve(quad16.W.T @ quad16.W, quad16.W.T @ quad16.b)
        np.testing.assert_allclose(quad16.x_star, expected, atol=1e-9)
        assert quad16.f_star == pytest.approx(quad16.smooth_value(quad16.x_star))

    def test_cond_one_means_mu_equals_l(self):
        p = make_quadratic(seed=7, dim=8, cond_number=1.0)
        assert p.mu_global == pytest.approx(p.l_global, rel=1e-10)

    def test_optimum_dominates_random_points(self, quad16, rng):
        for _ in range(100):
            x = quad16.x_star + rng.standard_normal(16)
            assert quad16.f_star <= quad16.smooth_value(x) + 1e-12

    def test_first_order_conditions(self, quad16):
        assert np.linalg.norm(quad16.handle().evaluate(quad16.x_star).g) <= 1e-10

    def test_deterministic(self):
        p1 = make_quadratic(seed=9, dim=8, cond_number=10.0)
        p2 = make_quadratic(seed=9, dim=8, cond_number=10.0)
        np.testing.assert_array_equal(p1.W, p2.W)
        np.testing.assert_array_equal(p1.default_start, p2.default_start)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            make_quadratic(seed=0, dim=7, cond_number=10.0)
        with pytest.raises(ValueError):
            make_quadratic(seed=0, dim=8, cond_number=0.5)

    def test_block_constants_bracket_global(self, quad16):
        # restriction eigenvalues sit inside the global spectrum
        for li in quad16.l_blocks:
            assert quad16.mu_global <= li <= quad16.l_global + 1e-12

    @pytest.mark.parametrize("scale", [0.0, 1e-12, 1e-6, 1.0])
    def test_value_rounding_bounds_the_error_of_f(self, quad16, scale):
        # against f in exact rational arithmetic, also at x_star, where the
        # computed f is rounding noise
        p = quad16
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = p.x_star + scale * rng.standard_normal(16)
            w = [[Fraction(float(c)) for c in row] for row in p.W]
            r = [sum((wj * Fraction(float(xj)) for wj, xj in zip(row, x)), -Fraction(float(bi)))
                 for row, bi in zip(w, p.b)]
            exact = sum(ri * ri for ri in r)
            assert abs(Fraction(p.smooth_value(x)) - exact) <= Fraction(p.value_rounding(x))


class TestRankDeficient:
    def test_shape_and_constants(self, rankdef16):
        assert rankdef16.mu_global == 0.0
        assert rankdef16.lambda_min_plus > 0.0

    def test_minimum_norm_solution(self, rankdef16):
        grad = rankdef16.handle().evaluate(rankdef16.x_star).g
        assert np.linalg.norm(grad) <= 1e-9

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            make_rank_deficient(seed=0, dim=8, rank=8)


class TestMakeComposite:
    def test_gamma_zero_reduces_to_quadratic(self):
        comp = make_composite(seed=21, dim=8, gamma=0.0)
        quad = make_quadratic(seed=21, dim=8, cond_number=50.0)
        # same seed and spectrum: identical W, and the optimum solves the
        # unregularized normal equations
        np.testing.assert_allclose(comp.W, quad.W, atol=1e-14)
        np.testing.assert_allclose(comp.x_star, quad.x_star, atol=1e-8)

    def test_large_gamma_zeroes_l1_block(self):
        seed, dim = 23, 8
        probe = make_quadratic(seed=seed, dim=dim, cond_number=50.0)
        gamma = 1.1 * float(np.abs(2 * probe.W.T @ probe.b).max())
        comp = make_composite(seed=seed, dim=dim, gamma=gamma)
        assert np.abs(comp.x_star[:dim // 2]).max() <= 1e-10
        # optimality: 0 in the subdifferential at x*, i.e. zero gradient mapping
        res = prox_map(comp.handle(), comp.x_star, 0, comp.l_global)
        assert np.linalg.norm(res.g_map) <= 1e-8

    def test_reference_methods_agree(self, composite12):
        from blockmin.problems import (_active_set_solve, _fista_reference,
                                       _term_arrays)
        p = composite12
        gram, lin = p.W.T @ p.W, p.W.T @ p.b
        lam = np.linalg.eigvalsh(gram)[-1]
        bounds = _term_arrays(p.terms, p.partition)
        x_a = _fista_reference(p.W, p.b, *bounds, lam)
        x_b = _active_set_solve(gram, lin, np.zeros(12), *bounds, lam)
        value = p.handle().composite_value
        f_a, f_b = value(x_a), value(x_b)
        assert abs(f_a - f_b) <= 1e-10 * (1 + abs(f_a))

    def test_reference_stops_at_the_rounding_floor(self, monkeypatch):
        # at condition number 1e5 the reference's mapping norm floors above
        # 1e-12 (2.5e-12 at best over 60,000 steps); stopping at the rounding
        # floor takes ~10,000 steps
        from blockmin import problems
        fista, steps = problems._fista, []

        def counted(*args):
            steps.append(0)
            for x in fista(*args):
                steps[-1] += 1
                if steps[-1] > 20_000:
                    raise AssertionError("a FISTA run went past 20,000 steps")
                yield x

        monkeypatch.setattr(problems, "_fista", counted)
        p = make_composite(1, 256, 0.4, ("l1", "box"), cond_number=1e5)
        res = prox_map(p.handle(), p.x_star, 0, p.l_global)
        assert np.linalg.norm(res.g_map) <= 1e-8

    def test_optimum_mapping_norm(self, composite12):
        res = prox_map(composite12.handle(), composite12.x_star, 0, composite12.l_global)
        assert np.linalg.norm(res.g_map) <= 1e-10 * composite12.l_global

    def test_box_start_feasible(self, box12):
        assert np.all(box12.default_start >= -0.3 - 1e-12)
        assert np.all(box12.default_start <= 0.3 + 1e-12)

    def test_block_solver_matches_restricted_solve(self, composite12, rng):
        # the zero-term block has a closed-form restricted solve to compare to
        p = composite12
        h = p.handle()
        x = rng.standard_normal(12)
        z = h.exact_block_min(h.evaluate(x), 1)
        cols = p.W[:, 6:]
        rhs = cols.T @ (p.b - p.W[:, :6] @ x[:6])
        np.testing.assert_allclose(z[6:], np.linalg.solve(cols.T @ cols, rhs),
                                   atol=1e-10)

    def test_none_term_is_no_term(self, rng):
        # as everywhere in ObjectiveHandle, a None entry of terms is a zero term
        w, b = rng.standard_normal((8, 8)), rng.standard_normal(8)
        probs = [CompositeQuadraticProblem(w, b, BlockPartition.halves(8),
                                           terms=(t, L1Term(0.3))) for t in (None, ZeroTerm())]
        np.testing.assert_array_equal(probs[0].x_star, probs[1].x_star)
        assert probs[0].f_star == probs[1].f_star


class TestNonlinearPl:
    def test_linear_case_constants(self):
        p = make_nonlinear_pl(seed=1, n=20, m=10, eps=0.0)
        assert p.mu_j == pytest.approx(1.0)
        x = p.default_start
        jac = p.jacobian(x)
        np.testing.assert_allclose(jac, p.amat)
        lo, _ = spectral_extremes(jac @ jac.T)
        assert lo >= 1.0 - 1e-9

    def test_jacobian_matches_finite_differences(self, nonlinear20, rng):
        p = nonlinear20
        for _ in range(20):
            x = p.x_solution + rng.standard_normal(20)
            jac = p.jacobian(x)
            fd = central_fd_jacobian(p.residual, x, p.n_residuals)
            assert np.abs(jac - fd).max() <= 1e-5 * (1 + np.abs(jac).max())

    def test_jacobian_rank_bound_everywhere(self, nonlinear20, rng):
        p = nonlinear20
        for _ in range(100):
            x = 3.0 * rng.standard_normal(20)
            jac = p.jacobian(x)
            lo, _ = spectral_extremes(jac @ jac.T)
            assert lo >= p.mu_j - 1e-9

    def test_solution_is_zero_residual(self, nonlinear20):
        assert nonlinear20.smooth_value(nonlinear20.x_solution) <= 1e-24

    def test_pl_inequality_at_random_points(self, nonlinear20, rng):
        p = nonlinear20
        for _ in range(50):
            x = p.x_solution + rng.standard_normal(20)
            g = p.value_and_gradient(x)[1]
            assert 0.5 * float(g @ g) >= p.pl_constant * p.smooth_value(x) - 1e-9

    def test_block_argmin_quality(self, nonlinear20, rng):
        p = nonlinear20
        h = p.handle()
        x = p.x_solution + 0.5 * rng.standard_normal(20)
        for i in range(2):
            z = h.exact_block_min(h.evaluate(x), i)
            gn = np.linalg.norm(h.block_gradient(z, i))
            assert gn <= 1e-9 * (1 + abs(h.smooth_value(z)))
            idx = h.partition.blocks[1 - i]
            np.testing.assert_array_equal(z[idx], x[idx])

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            make_nonlinear_pl(seed=0, n=10, m=10)


def test_factored_matrices_are_finite_and_exactly_symmetric(monkeypatch):
    # cholesky and spectral_extremes check neither property, and read one
    # triangle only: every matrix the problems hand them must have both
    seen = {"cholesky": [], "spectral_extremes": []}

    def recording(name):
        kernel = getattr(linalg, name)

        def call(a):
            seen[name].append(a.copy())
            return kernel(a)
        return call

    for name in seen:
        monkeypatch.setattr(problems, name, recording(name))
    cfg = SolverConfig(max_iters=40)
    nl = make_nonlinear_pl(0, 20, 14)
    run_am(nl.handle(), nl.default_start, cfg)
    run_aam(nl.handle(), nl.default_start, cfg)
    # far from the solution the block Hessian is indefinite and gets shifted
    far = nl.x_solution + 3.0 * np.random.default_rng(3).standard_normal(20)
    nl.block_argmin(nl.handle().evaluate(far), 0)
    n_nonlinear = len(seen["cholesky"])
    comp = make_composite(1, 16, 0.4, ("l1", "box"))
    run_am(comp.handle(), comp.default_start, cfg)
    make_quadratic(0, 16, 100.0)  # block factors and the closed-form optimum
    assert 0 < n_nonlinear < len(seen["cholesky"])
    assert len(seen["spectral_extremes"]) == 4  # the L_i of both builds
    for a in seen["cholesky"] + seen["spectral_extremes"]:
        assert np.isfinite(a).all() and np.array_equal(a, a.T)
