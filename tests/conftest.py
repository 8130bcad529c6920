import numpy as np
import pytest

from blockmin import (make_composite, make_nonlinear_pl, make_quadratic,
                      make_rank_deficient)


@pytest.fixture(scope="session")
def quad16():
    """Standard seeded quadratic: dim 16, eigenvalue ratio 200."""
    return make_quadratic(seed=3, dim=16, cond_number=200.0)


@pytest.fixture(scope="session")
def quad8():
    return make_quadratic(seed=42, dim=8, cond_number=50.0)


@pytest.fixture(scope="session")
def composite12():
    """Quadratic + l1 on block 1, nothing on block 2."""
    return make_composite(seed=11, dim=12, gamma=0.4)


@pytest.fixture(scope="session")
def box12():
    """Box-constrained strongly convex quadratic, both blocks clipped."""
    return make_composite(seed=13, dim=12, gamma=0.0, kinds=("box", "box"),
                          box_bounds=(-0.3, 0.3))


@pytest.fixture(scope="session")
def rankdef16():
    return make_rank_deficient(seed=5, dim=16, rank=12)


@pytest.fixture(scope="session")
def nonlinear20():
    return make_nonlinear_pl(seed=2, n=20, m=14)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def jacobian(p, x):
    """Jacobian of the residual of the nonlinear system p at x: A plus eps
    cos(x_j) at (j, j) for j < m. The package never forms it."""
    m = p.n_residuals
    jac = p.amat.copy()
    jac[np.arange(m), np.arange(m)] += p.eps * np.cos(x[:m])
    return jac
