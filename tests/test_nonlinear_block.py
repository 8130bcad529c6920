"""The Newton block solver of the nonlinear PL problem: exactness, descent,
agreement with an independent trust-region solve and the two blocks where the
two end at different minima, the factorizations the Hessian shift and the
chord steps cost, the point it hands back, the AM stop it enables, and the
gradient and block Hessian it builds without a Jacobian, against ones built
from the Jacobian."""

import dataclasses
import functools

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockmin import BlockPartition, SolverConfig, make_nonlinear_pl, problems, run_aam, run_am
from blockmin.errors import NotSpd, SolverError
from blockmin.linalg import cholesky
from blockmin.objective import ObjectiveHandle
from blockmin.problems import NonlinearEqPlProblem
from conftest import jacobian

SHAPES = [(20, 14), (100, 70), (200, 140)]
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@functools.lru_cache(maxsize=None)
def problem(seed, shape):
    return make_nonlinear_pl(seed, *shape)


def point(p, point_seed, scale):
    rng = np.random.default_rng(point_seed)
    return p.x_solution + scale * rng.standard_normal(p.x_solution.size)


def block_hessian(p, x, idx):
    """Hessian of f = ||r||^2 on the block: 2 J^T J + 2 sum_j r_j hess r_j,
    where r_j = A_j x + eps sin(x_j) + c_j has hess r_j = -eps sin(x_j) e_j e_j^T
    for j < m."""
    m = p.n_residuals
    jac = p.amat[:, idx].copy()
    curv = np.zeros(idx.size)
    for col, j in enumerate(idx):
        if j < m:
            jac[j, col] += p.eps * np.cos(x[j])
            curv[col] = -p.eps * np.sin(x[j]) * p.residual(x)[j]
    return 2.0 * (jac.T @ jac) + np.diag(2.0 * curv)


def trust_exact_block_min(p, x, i):
    """Reference block minimizer: scipy's exact trust-region method."""
    idx = p.partition.blocks[i]

    def spliced(z):
        q = x.copy()
        q[idx] = z
        return q

    res = scipy.optimize.minimize(
        lambda z: p.smooth_value(spliced(z)), x[idx],
        jac=lambda z: p.value_and_gradient(spliced(z))[1][idx],
        hess=lambda z: block_hessian(p, spliced(z), idx),
        method="trust-exact", options={"gtol": 1e-13, "maxiter": 400})
    return spliced(res.x)


@DETERMINISTIC
@given(seed=st.integers(0, 7), shape=st.sampled_from(SHAPES),
       point_seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 1.0, 3.0]),
       i=st.integers(0, 1))
def test_block_argmin_is_exact_descends_and_keeps_other_block(seed, shape, point_seed,
                                                              scale, i):
    p = problem(seed, shape)
    x = point(p, point_seed, scale)
    h = p.handle()
    z = h.exact_block_min(h.evaluate(x), i)
    f_x = p.smooth_value(x)
    f_z, g_z, _ = p.value_and_gradient(z)
    idx = p.partition.blocks[i]
    assert np.linalg.norm(g_z[idx]) <= 1e-12 * (1.0 + f_z)
    assert f_z <= f_x + 1e-15 * (1.0 + f_x)
    other = p.partition.blocks[1 - i]
    assert np.array_equal(z[other], x[other])


@DETERMINISTIC
@given(seed=st.integers(0, 7), shape=st.sampled_from(SHAPES),
       point_seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 0.25, 0.5]),
       i=st.integers(0, 1))
# the first full Newton step here (length 8.3) lowers f from 3.97 to 3.69 only,
# far less than its model predicts; taken, it leads to a higher minimum (0.916)
@example(seed=4, shape=(20, 14), point_seed=30224, scale=0.5, i=0)
def test_block_value_matches_trust_region_reference(seed, shape, point_seed, scale, i):
    # within about the scale of the default starts (0.4). A block whose
    # columns of A have a singular value below eps can have several local
    # minima, and the two methods may pick different ones: over seeds 0-7,
    # n = 20 and 100, 40 points and both blocks they differ in 1 of 1,280
    # draws at scale 0.4 and in 1 at 0.5, both on seed 4, n = 20, block 0,
    # whose columns have sigma_min 0.13 (pinned in
    # test_two_minimum_blocks_are_pinned)
    p = problem(seed, shape)
    x = point(p, point_seed, scale)
    h = p.handle()
    f_newton = p.smooth_value(h.exact_block_min(h.evaluate(x), i))
    f_ref = p.smooth_value(trust_exact_block_min(p, x, i))
    assert abs(f_newton - f_ref) <= 1e-13 * (1.0 + f_ref)


def test_indefinite_block_hessian_is_shifted(monkeypatch):
    # far from the solution the curvature term makes the block Hessian
    # indefinite, so the first Newton step needs the shift
    p = problem(0, (20, 14))
    x = point(p, 3, 3.0)
    idx = p.partition.blocks[0]
    assert np.linalg.eigvalsh(block_hessian(p, x, idx))[0] < 0.0
    factorizations, failures = [], []

    def counted(a):
        factorizations.append(0)
        try:
            return cholesky(a)
        except NotSpd:
            failures.append(0)
            raise

    monkeypatch.setattr(problems, "cholesky", counted)
    h = p.handle()
    z = h.exact_block_min(h.evaluate(x), 0)
    f_z, g_z, _ = p.value_and_gradient(z)
    assert np.linalg.norm(g_z[idx]) <= 1e-12 * (1.0 + f_z)
    assert f_z < p.smooth_value(x)
    # 39 factorizations, 27 of them failing, when every Newton step searched
    # for its shift from 0
    assert 0 < len(failures) <= 12 and len(factorizations) <= 24


def test_capped_newton_solve_is_a_solver_failure(monkeypatch):
    # an iterate the step cap stopped is no block minimum; from the far start
    # above, the solve needs more than one step
    p = problem(0, (20, 14))
    start = p.handle().evaluate(point(p, 3, 3.0))
    monkeypatch.setattr(problems, "_NEWTON_MAX_STEPS", 1)
    with pytest.raises(SolverError, match="block 0 .* in 1 steps"):
        p.block_argmin(start, 0)


# seed 4, n = 20, m = 14, block 0, whose columns of A have sigma_min 0.13:
# (point seed, scale, Newton's block value, trust-exact's block value)
TWO_MINIMA = [(35, 0.5, 0.7305124046315922, 0.648839335000834),
              (8, 0.4, 1.1620363746292324, 1.1963846462710652)]


@pytest.mark.parametrize("point_seed, scale, f_newton, f_trust", TWO_MINIMA)
def test_two_minimum_blocks_are_pinned(point_seed, scale, f_newton, f_trust):
    # the two draws of the trust-region comparison where the two solves end at
    # different local minima of one block, each stationary in the block
    p = problem(4, (20, 14))
    x = point(p, point_seed, scale)
    h = p.handle()
    idx = p.partition.blocks[0]
    ends = (h.exact_block_min(h.evaluate(x), 0), trust_exact_block_min(p, x, 0))
    values = []
    for z in ends:
        f_z, g_z, _ = p.value_and_gradient(z)
        assert np.linalg.norm(g_z[idx]) <= 1e-9 * (1.0 + f_z)
        values.append(f_z)
    assert abs(values[0] - values[1]) > 0.03
    assert values[0] == pytest.approx(f_newton, rel=1e-6)
    assert values[1] == pytest.approx(f_trust, rel=1e-6)


@pytest.mark.parametrize("seed", [1, 2])
def test_block_solves_reuse_the_factor_and_hand_back_their_point(monkeypatch, seed):
    # chord steps: a run factors the block Hessian about 1.2 times per block
    # solve, where a Newton step at every iterate took 2.8. The solve returns
    # the point it evaluated last, so block_min evaluates nothing more
    events = []
    factor = problems.cholesky
    value_and_gradient = NonlinearEqPlProblem.value_and_gradient
    block_argmin = NonlinearEqPlProblem.block_argmin
    block_min = ObjectiveHandle.block_min

    def logged(name, fn):
        # logged on return, a failed factorization too
        def call(*args):
            try:
                return fn(*args)
            finally:
                events.append(name)
        return call

    monkeypatch.setattr(problems, "cholesky", logged("factor", factor))
    monkeypatch.setattr(NonlinearEqPlProblem, "value_and_gradient",
                        logged("evaluate", value_and_gradient))
    monkeypatch.setattr(NonlinearEqPlProblem, "block_argmin", logged("solved", block_argmin))
    monkeypatch.setattr(ObjectiveHandle, "block_min", logged("block_min", block_min))
    p = make_nonlinear_pl(seed, 200, 140)
    cfg = SolverConfig(max_iters=400, target_gap=1e-10)
    for run in (run_am, run_aam):
        events.clear()
        trace = run(p.handle(), p.default_start, cfg)
        assert trace.status == "target_gap"
        solves = events.count("solved")
        assert solves == trace.final.k
        assert events.count("factor") <= 1.5 * solves
        after = [events[j + 1] for j, e in enumerate(events) if e == "solved"]
        assert after == ["block_min"] * solves


@pytest.mark.parametrize("i", [0, 1])
def test_non_finite_data_ends_the_newton_loop(i):
    # a NaN in c reaches block 0's Hessian through the curvature term, and
    # block 1 only through the gradient; either would keep the step halving
    # (or the shift growing) forever
    p = problem(0, (20, 14))
    c = p.c.copy()
    c[0] = np.nan
    bad = NonlinearEqPlProblem(amat=p.amat, c=c, eps=p.eps, partition=p.partition,
                               x_solution=p.x_solution, default_start=p.default_start)
    with pytest.raises(SolverError):
        bad.block_argmin(bad.handle().evaluate(bad.default_start), i)


@pytest.mark.parametrize("seed", [2, 3, 6, 7, 9, 10, 11])
def test_am_reaches_grad_tolerance(seed):
    # with inexact block solves these runs idled at |grad f| ~ 1.5e-13 until
    # max_iters; exact ones reach the default tolerance of 1e-13
    p = make_nonlinear_pl(seed, 100, 70)
    trace = run_am(p.handle(), p.default_start, SolverConfig(max_iters=200))
    assert trace.status == "grad_tolerance"
    assert trace.final.k < 200


# (n, m), partition, block: a block wholly below m, one that straddles m, one
# with no coordinate below m, and both blocks of a partition into two
# interleaved, unordered index sets
REFERENCE_CASES = [((200, 140), "halves", 0), ((200, 140), "halves", 1),
                   ((20, 8), "halves", 1), ((20, 14), "shuffled", 0),
                   ((20, 14), "shuffled", 1)]


@DETERMINISTIC
@given(seed=st.integers(0, 7), case=st.sampled_from(REFERENCE_CASES),
       eps=st.floats(0.0, 0.5), point_seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.1, 1.0, 3.0]), cut=st.integers(1, 19))
def test_gradient_and_block_hessian_match_the_jacobian_forms(seed, case, eps, point_seed,
                                                             scale, cut):
    (n, m), layout, i = case
    p = make_nonlinear_pl(seed, n, m, eps=eps)
    if layout == "shuffled":
        perm = np.random.default_rng(point_seed).permutation(n)
        p = dataclasses.replace(p, partition=BlockPartition(n, (perm[:cut], perm[cut:])))
    x = point(p, point_seed, scale)
    f, g, r = p.value_and_gradient(x)
    assert np.array_equal(r, p.residual(x)) and f == float(r @ r)
    g_ref = 2.0 * (jacobian(p, x).T @ r)
    assert np.linalg.norm(g - g_ref) <= 1e-13 * (1.0 + np.linalg.norm(g_ref))
    hess = p._block_hessian(i, x, r)
    hess_ref = block_hessian(p, x, p.partition.blocks[i])
    assert np.array_equal(hess, hess.T)  # cholesky reads one triangle
    assert np.linalg.norm(hess - hess_ref) <= 1e-13 * (1.0 + np.linalg.norm(hess_ref))


@pytest.mark.parametrize("seed", [1, 2])
def test_am_and_aam_form_no_jacobian(monkeypatch, seed):
    # the Newton loop and every point carry the residual alone
    made = []
    make_point = ObjectiveHandle._point

    def recorded(h, *args, **kwargs):
        made.append(make_point(h, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(ObjectiveHandle, "_point", recorded)
    p = make_nonlinear_pl(seed, 200, 140)
    cfg = SolverConfig(max_iters=400, target_gap=1e-10)
    for run in (run_am, run_aam):
        made.clear()
        trace = run(p.handle(), p.default_start, cfg)
        assert trace.status == "target_gap"
        assert made and all(q.cache.shape == (140,) and np.array_equal(q.cache, p.residual(q.x))
                            for q in made)
