"""Proximal machinery for block objectives.

For a block i, step constant M > 0 and point x, the prox point is

    t = prox_{g_i/M}(x_i - grad_i f(x)/M),

the gradient mapping is M (x_i - t), and the decrease functional is -2M times
the minimum of the block model

    <grad_i f(x), u - x_i> + (M/2)||u - x_i||^2 + g_i(u) - g_i(x_i).

In the smooth unconstrained case the decrease functional collapses to
||grad_i f(x)||^2. The decrease value is always computed by plugging the prox
point into the model (closed form), never by numeric minimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objective import ObjectiveHandle


def soft_threshold(z: np.ndarray, level: float) -> np.ndarray:
    """Componentwise soft-thresholding, the prox of level*||.||_1."""
    return np.sign(z) * np.maximum(np.abs(z) - level, 0.0)


class ZeroTerm:
    """g_i identically zero on an unconstrained block."""

    is_zero = True

    def value(self, xi: np.ndarray) -> float:
        return 0.0

    def prox(self, z: np.ndarray, step: float) -> np.ndarray:
        return np.asarray(z, dtype=float)


@dataclass(frozen=True)
class L1Term:
    """g_i(x_i) = weight * ||x_i||_1."""

    weight: float
    is_zero = False

    def value(self, xi: np.ndarray) -> float:
        return self.weight * float(np.abs(xi).sum())

    def prox(self, z: np.ndarray, step: float) -> np.ndarray:
        return soft_threshold(z, self.weight / step)


@dataclass(frozen=True)
class BoxTerm:
    """Indicator of the box [lo, hi]^{n_i}; prox is the projection."""

    lo: float
    hi: float
    is_zero = False

    def value(self, xi: np.ndarray) -> float:
        inside = np.all(xi >= self.lo - 1e-12) and np.all(xi <= self.hi + 1e-12)
        return 0.0 if inside else np.inf

    def prox(self, z: np.ndarray, step: float) -> np.ndarray:
        return np.clip(z, self.lo, self.hi)


@dataclass(frozen=True)
class ProxMapResult:
    """Prox point, gradient mapping and decrease value for one block."""

    t_point: np.ndarray
    g_map: np.ndarray
    d_value: float


def prox_map(h: ObjectiveHandle, x: np.ndarray, i: int, step: float) -> ProxMapResult:
    """Evaluate the block prox point, gradient mapping and decrease value.

    Parameters
    ----------
    h : ObjectiveHandle
    x : full-length point
    i : block index
    step : positive step constant M

    Raises
    ------
    ValueError
        If block i has a non-zero composite term without a prox operator.
    """
    if step <= 0:
        raise ValueError("step constant must be positive")
    x = np.asarray(x, dtype=float)
    idx = h.partition.blocks[i]
    xi = x[idx]
    gi = np.asarray(h.block_gradient(x, i), dtype=float)
    term = h.term(i)
    z = xi - gi / step
    if term is None or term.is_zero:
        t = z
        g_shift = 0.0
    else:
        if getattr(term, "prox", None) is None:
            raise ValueError(f"block {i} has a non-zero term but no prox operator")
        t = np.asarray(term.prox(z, step), dtype=float)
        g_shift = float(term.value(t)) - float(term.value(xi))
    diff = t - xi
    model_min = float(gi @ diff) + 0.5 * step * float(diff @ diff) + g_shift
    return ProxMapResult(t_point=t, g_map=step * (xi - t), d_value=-2.0 * step * model_min)
