"""Dense linear algebra kernel: SPD factorization, solves, symmetric eigen extremes.

Vectors are 1-d float ndarrays, matrices 2-d row-major float ndarrays. The
public ``cholesky``, ``solve_spd`` and ``spectral_extremes`` validate shape,
finiteness and symmetry, so certificates are never polluted by silent NaNs.
Their LAPACK kernels ``factor_spd``, ``solve_factored`` and ``solve_cholesky``
trust the caller, the problem code with matrices it builds itself, except that
``factor_spd`` raises ``SolverError`` on a non-finite matrix, which would stall
its loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import DimensionMismatch, NotSpd, NotSymmetric, SolverError

SYMMETRY_RTOL = 1e-12


def as_vector(x) -> np.ndarray:
    """Validate and convert to a 1-d float vector with finite entries."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def as_matrix(m) -> np.ndarray:
    """Validate and convert to a 2-d float matrix with finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def require_symmetric(m: np.ndarray, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > rtol * scale:
        raise NotSymmetric("matrix asymmetry exceeds tolerance")
    return a


@dataclass(frozen=True)
class SpdFactorization:
    """Cholesky factorization source = factor @ factor.T, factor lower-triangular."""

    source: np.ndarray
    factor: np.ndarray

    @property
    def dim(self) -> int:
        return self.source.shape[0]


def factor_spd(a: np.ndarray) -> SpdFactorization:
    """Factor a finite, exactly symmetric float matrix, unchecked: NotSpd on a
    non-positive pivot, SolverError on a non-finite entry, which LAPACK may turn
    into NaN factors without an error but which always reaches the diagonal."""
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        if np.isfinite(a).all():
            raise NotSpd("matrix is not positive definite") from exc
        raise SolverError("matrix has non-finite entries") from exc
    if not np.isfinite(np.diagonal(factor)).all():
        raise SolverError("matrix has non-finite entries")
    return SpdFactorization(source=a, factor=factor)


def solve_factored(f: SpdFactorization, b: np.ndarray) -> np.ndarray:
    """Solve f.source @ x = b for a float vector b of length f.dim, unchecked."""
    return solve_cholesky(f.factor, b)


def solve_cholesky(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve factor @ factor.T @ x = b for a lower-triangular factor, unchecked,
    by the two LAPACK calls scipy's solve_triangular makes: the same floats."""
    lt = factor.T
    y, _ = dtrtrs(lt, b, lower=0, trans=1)
    x, _ = dtrtrs(lt, y, lower=0, trans=0)
    return x


def cholesky(m) -> SpdFactorization:
    """Factor a symmetric positive definite matrix.

    Raises NotSymmetric if the input asymmetry exceeds the relative tolerance,
    NotSpd if a pivot is non-positive.
    """
    a = require_symmetric(m)
    # symmetrize so LAPACK sees an exactly symmetric operand
    return factor_spd(0.5 * (a + a.T))


def solve_spd(f: SpdFactorization, rhs) -> np.ndarray:
    """Solve f.source @ x = rhs via two triangular solves."""
    b = as_vector(rhs)
    if b.shape[0] != f.dim:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != matrix dim {f.dim}")
    return solve_factored(f, b)


def spectral_extremes(m) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix."""
    a = require_symmetric(m)
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    return float(w[0]), float(w[-1])
