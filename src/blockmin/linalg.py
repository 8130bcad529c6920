"""Dense linear-algebra kernels of the exact block solves: SPD factorization,
solves and symmetric eigenvalue extremes, straight on LAPACK.

Internal to the package. Every caller is problem code handing over a matrix
it built itself, which must be a square float ndarray, finite and exactly
symmetric: ``cholesky`` and ``spectral_extremes`` read one triangle only, and
nothing checks shape or symmetry. The one check kept is that ``cholesky``
raises ``SolverError`` on a non-finite matrix, for which LAPACK can return
NaN factors without an error and which would stall the loops that shift a
matrix until it factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import NotSpd, SolverError


@dataclass(frozen=True)
class SpdFactorization:
    """Cholesky factorization source = factor @ factor.T, factor lower-triangular."""

    source: np.ndarray
    factor: np.ndarray


def cholesky(a: np.ndarray) -> SpdFactorization:
    """Factor a: NotSpd on a non-positive pivot, SolverError on a non-finite
    entry, which always reaches the diagonal of the factor."""
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        if np.isfinite(a).all():
            raise NotSpd("matrix is not positive definite") from exc
        raise SolverError("matrix has non-finite entries") from exc
    if not np.isfinite(np.diagonal(factor)).all():
        raise SolverError("matrix has non-finite entries")
    return SpdFactorization(source=a, factor=factor)


def solve_spd(f: SpdFactorization, b: np.ndarray) -> np.ndarray:
    """Solve f.source @ x = b for a float vector b, by the two LAPACK calls
    scipy's solve_triangular makes: the same floats."""
    lt = f.factor.T
    y, _ = dtrtrs(lt, b, lower=0, trans=1)
    x, _ = dtrtrs(lt, y, lower=0, trans=0)
    return x


def spectral_extremes(a: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a."""
    w = np.linalg.eigvalsh(a)
    return float(w[0]), float(w[-1])
