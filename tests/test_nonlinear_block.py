"""The Newton block solver of the nonlinear PL problem: exactness, descent,
agreement with an independent trust-region solve, and the AM stop it enables."""

import functools

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmin import SolverConfig, make_nonlinear_pl, run_am

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
    z = p.block_argmin(p.handle().evaluate(x), i)
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
def test_block_value_matches_trust_region_reference(seed, shape, point_seed, scale, i):
    # within the scale of the default starts (0.4); from scale 1 on a block
    # can have several local minima, and the two methods may pick different ones
    p = problem(seed, shape)
    x = point(p, point_seed, scale)
    f_newton = p.smooth_value(p.block_argmin(p.handle().evaluate(x), i))
    f_ref = p.smooth_value(trust_exact_block_min(p, x, i))
    assert abs(f_newton - f_ref) <= 1e-13 * (1.0 + f_ref)


def test_indefinite_block_hessian_is_shifted():
    # far from the solution the curvature term makes the block Hessian
    # indefinite, so the first Newton step needs the shift
    p = problem(0, (20, 14))
    x = point(p, 3, 3.0)
    idx = p.partition.blocks[0]
    assert np.linalg.eigvalsh(block_hessian(p, x, idx))[0] < 0.0
    z = p.block_argmin(p.handle().evaluate(x), 0)
    f_z, g_z, _ = p.value_and_gradient(z)
    assert np.linalg.norm(g_z[idx]) <= 1e-12 * (1.0 + f_z)
    assert f_z < p.smooth_value(x)


@pytest.mark.parametrize("seed", [2, 3, 6, 7, 9, 10, 11])
def test_am_reaches_grad_tolerance(seed):
    # with inexact block solves these runs idled at |grad f| ~ 1.5e-13 until
    # max_iters; exact ones reach the default tolerance of 1e-13
    p = make_nonlinear_pl(seed, 100, 70)
    trace = run_am(p.handle(), p.default_start, SolverConfig(max_iters=200))
    assert trace.status == "grad_tolerance"
    assert trace.final.k < 200
