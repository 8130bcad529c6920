from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmin import (BlockPartition, CompositeQuadraticProblem, L1Term, SolverConfig,
                      ZeroTerm, make_composite, make_nonlinear_pl, make_quadratic,
                      make_rank_deficient, prox_map, run_aam, run_am)
from blockmin import linalg, problems
from blockmin.linalg import spectral_extremes
from conftest import jacobian


def central_fd_jacobian(fun, x, m, step=1e-6):
    jac = np.zeros((m, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        jac[:, j] = (fun(x + e) - fun(x - e)) / (2 * step)
    return jac


def exact_composite_value(p, x):
    """F(x) in exact rational arithmetic, for a feasible float x."""
    xs = [Fraction(float(v)) for v in x]
    r = [sum((Fraction(float(w)) * v for w, v in zip(row, xs)), -Fraction(float(bi)))
         for row, bi in zip(p.W, p.b)]
    return (sum(ri * ri for ri in r)
            + sum(Fraction(float(w)) * abs(v) for w, v in zip(p._bounds[0], xs)))


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
            exact = exact_composite_value(p, x)
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

    @pytest.mark.parametrize("dim", [16, 64, 256])
    @pytest.mark.parametrize("cond", [50.0, 1e4])
    def test_certified_optimum_matches_lbfgsb(self, dim, cond):
        # an independent solve: L-BFGS-B on the split-sign reformulation, the
        # l1 block as x = u - v with u, v >= 0 and weight sum(u + v), the box
        # block as bounds
        p = make_composite(3, dim, 0.4, ("l1", "box"), (-0.5, 0.5), cond_number=cond)
        half = dim // 2

        def fun(z):
            x = np.concatenate([z[:half] - z[half:dim], z[dim:]])
            r = p.W @ x - p.b
            g = 2.0 * (p.W.T @ r)
            value = float(r @ r) + 0.4 * float(z[:dim].sum())
            return value, np.concatenate([g[:half] + 0.4, 0.4 - g[:half], g[half:]])

        bounds = [(0.0, None)] * dim + [(-0.5, 0.5)] * half
        res = scipy.optimize.minimize(fun, np.zeros(dim + half), jac=True,
                                      method="L-BFGS-B", bounds=bounds,
                                      options={"ftol": 1e-16, "gtol": 1e-13,
                                               "maxiter": 20000})
        assert abs(res.fun - p.f_star) <= 1e-9 * (1.0 + abs(p.f_star))

    def test_cond_1e5_build_stays_within_the_active_set_steps(self, monkeypatch):
        # the build's one solve is the active set from zero, whose FISTA steps
        # are capped; its optimum meets the mapping-norm check
        fista, steps = problems._fista, []

        def counted(*args):
            for x in fista(*args):
                steps.append(0)
                yield x

        monkeypatch.setattr(problems, "_fista", counted)
        p = make_composite(1, 256, 0.4, ("l1", "box"), cond_number=1e5)
        assert len(steps) <= problems._ACTIVE_SET_MAX_STEPS
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


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**16), dim=st.sampled_from([4, 8, 12]),
       cond=st.sampled_from([1.0, 2.0, 50.0, 1e4, 1e8]),
       kinds=st.tuples(*[st.sampled_from(["l1", "box", "zero"])] * 2),
       gamma=st.sampled_from([0.0, 0.4, 3.0]),
       box_bounds=st.sampled_from([(-0.3, 0.3), (0.0, 1.0), (0.0, 0.0)]),
       sigma=st.sampled_from([1e-6, 1e-2, 1.0]), point_seed=st.integers(0, 2**16))
def test_gap_bound_covers_the_gap(seed, dim, cond, kinds, gamma, box_bounds, sigma,
                                  point_seed):
    # at points near x* clipped to the box, so that some sit on a bound, the
    # certified bound covers F(x) - F(x*) <= F(x) - F*, both taken exactly
    p = make_composite(seed, dim, gamma, kinds, box_bounds, cond_number=cond)
    assert p._gap_bound(p.x_star) <= 1e-10 * (1.0 + abs(p.f_star))
    rng = np.random.default_rng(point_seed)
    x = np.clip(p.x_star + sigma * rng.standard_normal(dim), *p._bounds[1:])
    gap = exact_composite_value(p, x) - exact_composite_value(p, p.x_star)
    assert Fraction(p._gap_bound(x)) >= gap


class TestDesignMatrix:
    @pytest.mark.parametrize("build", [
        lambda: make_quadratic(1, 64, 100.0),
        lambda: make_composite(1, 64, 0.4, ("l1", "box")),
        lambda: make_rank_deficient(1, 64, 40),
    ], ids=["quadratic", "composite", "rank_deficient"])
    def test_w_is_c_contiguous(self, build):
        # a fresh evaluation reads W by row chunks W[s], contiguous only in a
        # row-major W
        assert build().W.flags.c_contiguous


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**16), half=st.integers(2, 32),
       cond=st.sampled_from([1.0, 2.0, 100.0, 1e4, 1e8, 9.9e9]),
       share=st.floats(0.0, 1.0))
def test_singular_values_are_the_prescribed_ones(seed, half, cond, share):
    # the sorted singular values of W equal the prescribed spectrum to
    # dim eps sigma_max; a rank-deficient W has exactly dim - rank zeros
    dim = 2 * half
    rank = half + 1 + int(share * (half - 2))
    cases = [
        (make_quadratic(seed, dim, cond), np.geomspace(1.0, np.sqrt(cond), dim)),
        (make_composite(seed, dim, 0.4, ("l1", "box"), cond_number=cond),
         np.geomspace(1.0, np.sqrt(cond), dim)),
        (make_rank_deficient(seed, dim, rank),
         np.concatenate([np.zeros(dim - rank), np.geomspace(1.0, 3.0, rank)])),
    ]
    for p, sigma in cases:
        tol = dim * np.finfo(float).eps * sigma[-1]
        found = np.sort(np.linalg.svd(p.W, compute_uv=False))
        np.testing.assert_allclose(found, sigma, rtol=0.0, atol=tol)
    assert np.count_nonzero(found <= tol) == dim - rank


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**16), half=st.integers(1, 128),
       cond=st.sampled_from([1.0, 2.0, 100.0, 1e4, 1e6, 1e8]),
       deficient=st.booleans(), share=st.floats(0.0, 1.0))
def test_known_spectrum_build_matches_the_generic_one(seed, half, cond, deficient, share):
    # the seeded builds take L, mu and lambda_min_plus from sigma^2 and x* from
    # W^T (b / sigma^2) refined once: the constants are within the margin
    # _gap_bound grants the spectrum of the computed G, and x* is the min-norm
    # least-squares solution that lstsq and the generic from_matrix find
    dim = 2 * half
    if deficient and dim >= 4:
        p = make_rank_deficient(seed, dim, half + 1 + int(share * (half - 2)))
    else:
        p = make_quadratic(seed, dim, cond)
    gram = p.W.T @ p.W
    lam = np.linalg.eigvalsh(gram)
    margin = sum(p.W.shape) * np.finfo(float).eps * np.trace(gram)
    assert abs(p.l_global / 2 - lam[-1]) <= margin
    assert abs(p.mu_global / 2 - lam[0]) <= margin
    x = np.linalg.lstsq(p.W, p.b, rcond=None)[0]
    tol = 1e-9 * (1.0 + np.linalg.norm(p.x_star))
    assert np.linalg.norm(p.x_star - x) <= tol
    # the generic build solves the normal equations by Cholesky, whose forward
    # error grows as eps kappa(G) (Higham, Accuracy and Stability, 2nd ed.,
    # sec. 20.4): 6.5e-9 at dim 2, cond 1e8
    generic = problems.QuadraticSplitProblem.from_matrix(p.W, p.b)
    kappa = p.l_global / (2.0 * p.lambda_min_plus)
    assert (np.linalg.norm(p.x_star - generic.x_star)
            <= tol + dim * np.finfo(float).eps * kappa * np.linalg.norm(p.x_star))
    assert abs(p.lambda_min_plus - generic.lambda_min_plus) <= margin


def test_seeded_builds_take_the_spectrum_from_sigma(monkeypatch):
    # eigvalsh, cholesky and lstsq of the full G or W run in a generic build
    # only: a seeded one takes the spectrum from sigma, and with no terms x*
    # from W^T (b / sigma^2); the composite optimum still takes an active-set solve
    shapes = {"eigvalsh": [], "cholesky": [], "lstsq": []}

    def recording(name, kernel):
        def call(a, *args, **kwargs):
            shapes[name].append(a.shape)
            return kernel(a, *args, **kwargs)
        return call

    for owner, name in ((np.linalg, "eigvalsh"), (np.linalg, "lstsq"), (problems, "cholesky")):
        monkeypatch.setattr(owner, name, recording(name, getattr(owner, name)))
    full = (16, 16)

    def full_calls():
        found = {name: s.count(full) for name, s in shapes.items()}
        for s in shapes.values():
            s.clear()
        return found

    make_quadratic(0, 16, 100.0)
    deficient = make_rank_deficient(0, 16, 12)
    assert full_calls() == {"eigvalsh": 0, "cholesky": 0, "lstsq": 0}
    make_composite(0, 16, 0.4, ("l1", "box"))
    assert full_calls()["eigvalsh"] == 0
    problems.QuadraticSplitProblem.from_matrix(deficient.W, deficient.b)
    assert full_calls() == {"eigvalsh": 1, "cholesky": 0, "lstsq": 1}
    quad = make_quadratic(1, 16, 100.0)
    full_calls()
    problems.QuadraticSplitProblem.from_matrix(quad.W, quad.b)
    assert full_calls() == {"eigvalsh": 1, "cholesky": 1, "lstsq": 0}


class TestNonlinearPl:
    def test_linear_case_constants(self):
        p = make_nonlinear_pl(seed=1, n=20, m=10, eps=0.0)
        assert p.mu_j == pytest.approx(1.0)
        x = p.default_start
        jac = jacobian(p, x)
        np.testing.assert_allclose(jac, p.amat)
        lo, _ = spectral_extremes(jac @ jac.T)
        assert lo >= 1.0 - 1e-9

    def test_jacobian_matches_finite_differences(self, nonlinear20, rng):
        p = nonlinear20
        for _ in range(20):
            x = p.x_solution + rng.standard_normal(20)
            jac = jacobian(p, x)
            fd = central_fd_jacobian(p.residual, x, p.n_residuals)
            assert np.abs(jac - fd).max() <= 1e-5 * (1 + np.abs(jac).max())

    def test_jacobian_rank_bound_everywhere(self, nonlinear20, rng):
        p = nonlinear20
        for _ in range(100):
            x = 3.0 * rng.standard_normal(20)
            jac = jacobian(p, x)
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
    make_quadratic(0, 16, 100.0)  # the block factors
    assert 0 < n_nonlinear < len(seen["cholesky"])
    assert len(seen["spectral_extremes"]) == 4  # the L_i of both builds
    for a in seen["cholesky"] + seen["spectral_extremes"]:
        assert np.isfinite(a).all() and np.array_equal(a, a.T)
