"""Dense linear algebra kernel: SPD factorization, solves, symmetric eigen extremes.

Thin contract layer over numpy/scipy LAPACK routines. Vectors are 1-d float
ndarrays, matrices 2-d row-major float ndarrays; everything is validated for
finiteness so solver-level certificates are never polluted by silent NaNs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotSpd, NotSymmetric

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


def cholesky(m) -> SpdFactorization:
    """Factor a symmetric positive definite matrix.

    Raises NotSymmetric if the input asymmetry exceeds the relative tolerance,
    NotSpd if a pivot is non-positive.
    """
    a = require_symmetric(m)
    # symmetrize so LAPACK sees an exactly symmetric operand
    a = 0.5 * (a + a.T)
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotSpd("matrix is not positive definite") from exc
    return SpdFactorization(source=a, factor=factor)


def solve_spd(f: SpdFactorization, rhs) -> np.ndarray:
    """Solve f.source @ x = rhs via two triangular solves."""
    b = as_vector(rhs)
    if b.shape[0] != f.dim:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != matrix dim {f.dim}")
    # as_vector checked b, and the factor comes from a matrix as_matrix checked
    y = scipy.linalg.solve_triangular(f.factor, b, lower=True, check_finite=False)
    return scipy.linalg.solve_triangular(f.factor.T, y, lower=False, check_finite=False)


def spectral_extremes(m) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix."""
    a = require_symmetric(m)
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    return float(w[0]), float(w[-1])
