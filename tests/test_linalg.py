import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmin.errors import NotSpd, SolverError
from blockmin.linalg import cholesky, solve_spd, spectral_extremes


def gaussian_elimination(a, b):
    """Plain row-reduction solve, independent of the factorization path."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        a[[col, pivot]] = a[[pivot, col]]
        b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            m = a[row, col] / a[col, col]
            a[row, col:] -= m * a[col, col:]
            b[row] -= m * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def char_poly_roots(m):
    """Eigenvalues as roots of det(M - t I), determinant by cofactor expansion."""
    def det(a):
        if a.shape[0] == 1:
            return a[0, 0]
        total = 0.0
        for j in range(a.shape[1]):
            minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
            total += (-1.0) ** j * a[0, j] * det(minor)
        return total

    n = m.shape[0]
    # sample det(M - t I) at n+1 points, interpolate the degree-n polynomial
    ts = np.linspace(-1.0, 1.0, n + 1) * (1.0 + np.abs(m).sum())
    vals = [det(m - t * np.eye(n)) for t in ts]
    coeffs = np.polyfit(ts, vals, n)
    return np.sort(np.roots(coeffs).real)


class TestCholesky:
    def test_identity(self):
        f = cholesky(np.eye(3))
        np.testing.assert_allclose(f.factor, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        f = cholesky(np.array([[4.0, 0.0], [0.0, 9.0]]))
        np.testing.assert_allclose(f.factor, [[2.0, 0.0], [0.0, 3.0]], atol=1e-14)

    def test_reconstruction_random(self, rng):
        r = rng.standard_normal((5, 5))
        m = r.T @ r + np.eye(5)
        f = cholesky(m)
        err = np.abs(f.factor @ f.factor.T - m).max() / np.abs(m).max()
        assert err <= 1e-10
        assert np.allclose(np.triu(f.factor, 1), 0.0)

    def test_not_spd(self):
        with pytest.raises(NotSpd):
            cholesky(np.array([[1.0, 0.0], [0.0, -2.0]]))


class TestSolveSpd:
    def test_identity(self):
        x = solve_spd(cholesky(np.eye(3)), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0], atol=1e-14)

    def test_diagonal(self):
        x = solve_spd(cholesky(np.diag([2.0, 4.0])), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)

    def test_against_elimination_oracle(self, rng):
        r = rng.standard_normal((6, 6))
        m = r.T @ r + 0.5 * np.eye(6)
        b = rng.standard_normal(6)
        x = solve_spd(cholesky(m), b)
        np.testing.assert_allclose(x, gaussian_elimination(m, b), atol=1e-9)
        assert np.linalg.norm(m @ x - b) <= 1e-9 * (1 + np.linalg.norm(b))

    def test_roundtrip_property(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            r = rng.standard_normal((n, n))
            m = r.T @ r + 0.1 * np.eye(n)
            b = rng.standard_normal(n)
            x = solve_spd(cholesky(m), b)
            assert np.linalg.norm(m @ x - b) <= 1e-9 * (1 + np.linalg.norm(b))


class TestUncheckedKernels:
    """cholesky and solve_spd check no shape or symmetry: they serve exactly
    symmetric matrices the package builds itself, with numpy's cholesky and
    the LAPACK calls of scipy's solve_triangular."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64))
    def test_bit_identical_to_the_public_path_and_to_solve_triangular(self, seed, n):
        rng = np.random.default_rng(seed)
        r = rng.standard_normal((n, n))
        m = r.T @ r + 0.1 * np.eye(n)
        b = rng.standard_normal(n)
        f = cholesky(m)
        x = solve_spd(f, b)
        assert np.array_equal(f.factor, np.linalg.cholesky(m))
        # the two scipy calls solve_spd made before it called LAPACK directly
        y = scipy.linalg.solve_triangular(f.factor, b, lower=True, check_finite=False)
        ref = scipy.linalg.solve_triangular(f.factor.T, y, lower=False, check_finite=False)
        assert np.array_equal(x, ref)

    def test_indefinite_is_not_spd(self):
        with pytest.raises(NotSpd):
            cholesky(np.array([[1.0, 0.0], [0.0, -2.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (2, 1), (4, 0), (4, 4)])
    def test_non_finite_entry_is_a_solver_error(self, rng, value, where):
        # LAPACK returns NaN factors for some of these and fails a pivot on others
        r = rng.standard_normal((5, 5))
        m = r.T @ r + np.eye(5)
        m[where] = m[where[::-1]] = value
        with pytest.raises(SolverError):
            cholesky(m)


class TestSpectralExtremes:
    def test_diagonal(self):
        assert spectral_extremes(np.diag([1.0, 5.0])) == (1.0, 5.0)

    def test_identity(self):
        lo, hi = spectral_extremes(np.eye(7))
        assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)

    def test_char_poly_oracle(self, rng):
        a = rng.standard_normal((4, 4))
        m = 0.5 * (a + a.T)
        lo, hi = spectral_extremes(m)
        roots = char_poly_roots(m)
        assert lo == pytest.approx(roots[0], rel=1e-8, abs=1e-8)
        assert hi == pytest.approx(roots[-1], rel=1e-8, abs=1e-8)

    def test_rayleigh_bracket_property(self, rng):
        a = rng.standard_normal((6, 6))
        m = 0.5 * (a + a.T)
        lo, hi = spectral_extremes(m)
        for _ in range(100):
            v = rng.standard_normal(6)
            q = (v @ m @ v) / (v @ v)
            assert lo - 1e-10 <= q <= hi + 1e-10
