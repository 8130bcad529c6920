"""Block-structured objective contract.

An objective is F(x) = f(x) + sum_i g_i(x_i) where f is smooth and each g_i
is a convex, possibly non-smooth per-block term (constraints enter as
indicator terms). The handle exposes exactly what solvers and certificates
consume: value, per-block gradients, optional exact per-block minimization,
per-block composite terms with prox operators, declared smoothness/strong
convexity constants, an optional optimum oracle, and optional hooks that
evaluate f and grad f at a point in one pass, at an affine combination of two
evaluated points, and at a point reached from an evaluated one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# step evaluates afresh each point this many step hook calls away from the
# last fresh evaluation, so that the rounding of the updates cannot build up
# over a run. On make_quadratic(0, 256, 100), ||grad f|| drifted from a fresh
# evaluation by up to 5.7e-13 over 3,000 AM steps without the refresh, and by
# up to 2.1e-13 with it.
REFRESH_STEPS = 32


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint split of coordinate indices 0..total_dim-1 into blocks."""

    total_dim: int
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.total_dim < 1:
            raise ValueError("total_dim must be positive")
        seen = np.zeros(self.total_dim, dtype=bool)
        norm_blocks = []
        for b in self.blocks:
            idx = np.asarray(b, dtype=int)
            if idx.size == 0:
                raise ValueError("empty block")
            if idx.min() < 0 or idx.max() >= self.total_dim:
                raise ValueError("block index out of range")
            if seen[idx].any():
                raise ValueError("blocks are not disjoint")
            seen[idx] = True
            norm_blocks.append(idx)
        if not seen.all():
            raise ValueError("blocks do not cover all coordinates")
        object.__setattr__(self, "blocks", tuple(norm_blocks))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @classmethod
    def contiguous(cls, sizes: Sequence[int]) -> "BlockPartition":
        """Partition into consecutive index ranges of the given sizes."""
        total = int(sum(sizes))
        blocks = []
        start = 0
        for s in sizes:
            blocks.append(np.arange(start, start + s))
            start += s
        return cls(total_dim=total, blocks=tuple(blocks))

    @classmethod
    def halves(cls, dim: int) -> "BlockPartition":
        if dim % 2 != 0:
            raise ValueError("dim must be even for a two-halves partition")
        return cls.contiguous([dim // 2, dim // 2])


@dataclass(frozen=True, eq=False)
class Point:
    """A point x of an objective with f = f(x), g = grad f(x) and an opaque
    per-problem cache (the nonlinear system's residual r; else None), all
    filled when ObjectiveHandle.evaluate, affine, step or block_min makes it.
    steps is the refresh counter of step: 0 for an evaluated point,
    p.steps + 1 for a step from p, and |1 - t| p.steps + |t| q.steps for an
    affine one. It does not bound the error of f: an affine point's f is p.f
    plus an increment, so it carries p's rounding plus the increment's,
    whatever the weights.
    """

    x: np.ndarray
    f: float
    g: np.ndarray = field(repr=False)
    cache: object = field(default=None, repr=False)
    steps: float = field(default=0.0, repr=False)


@dataclass(frozen=True)
class ObjectiveHandle:
    """Immutable handle for a block-structured objective.

    Parameters
    ----------
    partition : BlockPartition
    smooth_value : callable x -> float
        The smooth part f.
    block_gradient : callable (x, i) -> ndarray of length n_i
        Gradient of f over the coordinates of block i.
    block_argmin : callable (p, i) -> ndarray of length n_i or Point, optional
        Block-i coordinates of a point minimizing F over block i with the
        other blocks fixed at p.x, for a Point p; p.f and p.g are known there,
        so a solver may start from them. A solver that evaluated its result
        may return that Point instead, whose x differs from p.x in block i
        only (the nonlinear system's Newton solve does); least squares
        returns coordinates.
    terms : tuple of per-block composite terms, optional
        Each term provides value(x_i), prox(z, step) (or None), and the flags
        is_zero / unconstrained; see blockmin.proxmaps. None means g == 0.
    l_global, mu_global : float, optional
        Smoothness / strong convexity constants of f. None means unknown.
    l_blocks, mu_blocks : tuple of float, optional
        Per-block constants. None means unknown.
    optimum : (x_star, f_star_composite) pair, optional
        Oracle used by certificates to measure exact gaps.
    line_minimizer : callable (p, q) -> float, optional
        Unclipped minimizer of t -> f(p.x + t (q.x - p.x)) for Points p and q;
        exact line searches use it instead of a slope search when present
        (closed form for quadratics, from p.g and q.g).
    value_and_gradient : callable x -> (f, g) or (f, g, cache), optional
        f(x) and the full gradient of f in one pass, sharing the work the two
        have in common (a residual, say). It must return the same floats as
        smooth_value and the per-block block_gradient. A third item is kept
        as the Point's cache. When present, evaluate goes through it.
    affine_value_and_gradient : callable (p, q, t) -> (f, g), optional
        f and grad f at p.x + t (q.x - p.x), computed from the Points p and q
        with no fresh evaluation (for a quadratic f, the gradient is affine in
        t and f quadratic, with its curvature read off q.g - p.g). affine uses
        it when present.
    step_value_and_gradient : callable (p, x, i) -> (f, g), optional
        f and grad f at x, computed from the Point p with less work than a
        fresh evaluation (for least squares, from one product with the Gram
        matrix); i is None, or a block in which alone x differs from p.x, so
        that the hook may use that block's share only. step and block_min use
        it, except at every REFRESH_STEPS-th step of a chain of such points,
        which they evaluate afresh.
    """

    partition: BlockPartition
    smooth_value: Callable[[np.ndarray], float]
    block_gradient: Callable[[np.ndarray, int], np.ndarray]
    block_argmin: Callable[[Point, int], np.ndarray] | None = None
    terms: tuple | None = None
    l_global: float | None = None
    mu_global: float | None = None
    l_blocks: tuple[float, ...] | None = None
    mu_blocks: tuple[float, ...] | None = None
    optimum: tuple[np.ndarray, float] | None = field(default=None, repr=False)
    line_minimizer: Callable[[Point, Point], float] | None = None
    value_and_gradient: Callable[[np.ndarray], tuple] | None = None
    affine_value_and_gradient: Callable[[Point, Point, float], tuple] | None = None
    step_value_and_gradient: Callable[[Point, np.ndarray, int | None], tuple] | None = None

    def __post_init__(self):
        if self.terms is not None and len(self.terms) != self.partition.n_blocks:
            raise ValueError("one composite term per block required")
        if self.l_global is not None and self.mu_global is not None:
            if not (self.l_global >= self.mu_global >= 0.0):
                raise ValueError("need L >= mu >= 0")
        if self.l_blocks is not None and self.mu_blocks is not None:
            for li, mi in zip(self.l_blocks, self.mu_blocks):
                if not (li >= mi >= 0.0):
                    raise ValueError("need L_i >= mu_i >= 0 in every block")

    # -- structure helpers -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.partition.total_dim

    @property
    def n_blocks(self) -> int:
        return self.partition.n_blocks

    def term(self, i: int):
        return None if self.terms is None else self.terms[i]

    def is_smooth(self) -> bool:
        """True when every composite term is identically zero."""
        if self.terms is None:
            return True
        return all(t is None or t.is_zero for t in self.terms)

    def block_unconstrained(self, i: int) -> bool:
        t = self.term(i)
        return True if t is None else bool(t.unconstrained)

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dim},)")
        return x

    # -- operations --------------------------------------------------------

    def _block_gradients(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(self.dim)
        for i, idx in enumerate(self.partition.blocks):
            gi = np.asarray(self.block_gradient(x, i), dtype=float)
            if gi.shape != (idx.size,):
                raise ValueError(
                    f"block_gradient({i}) returned shape {gi.shape}, expected ({idx.size},)")
            out[idx] = gi
        return out

    def _point(self, x: np.ndarray, f, g, cache=None, steps: float = 0.0) -> Point:
        g = np.asarray(g, dtype=float)
        if g.shape != (self.dim,):
            raise ValueError(
                f"a hook returned a gradient of shape {g.shape}, expected ({self.dim},)")
        return Point(x, float(f), g, cache, steps)

    def evaluate(self, x: np.ndarray) -> Point:
        """The Point at x: one value_and_gradient call when the handle has the
        hook; smooth_value and the per-block block_gradient otherwise."""
        x = self._check_dim(x)
        if self.value_and_gradient is None:
            return self._point(x, self.smooth_value(x), self._block_gradients(x))
        return self._point(x, *self.value_and_gradient(x))

    def affine(self, p: Point, q: Point, t: float) -> Point:
        """The Point at p.x + t (q.x - p.x): from affine_value_and_gradient
        when the handle has it, evaluated afresh otherwise."""
        x = p.x + t * (q.x - p.x)
        if self.affine_value_and_gradient is None:
            return self.evaluate(x)
        return self._point(x, *self.affine_value_and_gradient(p, q, t),
                           steps=abs(1.0 - t) * p.steps + abs(t) * q.steps)

    def step(self, p: Point, x: np.ndarray, block: int | None = None) -> Point:
        """The Point at x, made from the Point p (with block = i, x differs from
        p.x in block i only): from step_value_and_gradient when the handle has
        it and x is under REFRESH_STEPS steps from a fresh evaluation."""
        x = self._check_dim(x)
        steps = p.steps + 1
        if self.step_value_and_gradient is None or steps >= REFRESH_STEPS:
            return self.evaluate(x)
        return self._point(x, *self.step_value_and_gradient(p, x, block), steps=steps)

    def composite_value(self, x: np.ndarray, smooth: float | None = None) -> float:
        """F(x) = f(x) + sum_i g_i(x_i); pass smooth = f(x) when it is known."""
        x = self._check_dim(x)
        total = float(self.smooth_value(x) if smooth is None else smooth)
        if self.terms is not None:
            for i, idx in enumerate(self.partition.blocks):
                t = self.terms[i]
                if t is not None and not t.is_zero:
                    total += float(t.value(x[idx]))
        return total

    def _solve_block(self, p: Point, i: int) -> tuple[np.ndarray, Point | None]:
        """(block_argmin(p, i) spliced onto p.x, the Point it returned or None)."""
        if self.block_argmin is None:
            raise ValueError(f"objective provides no block minimizer (block {i})")
        idx = self.partition.blocks[i]
        z = self.block_argmin(p, i)
        q = None
        if isinstance(z, Point):
            q = self._point(self._check_dim(z.x), z.f, z.g, z.cache)
            z = q.x[idx]
        z = np.asarray(z, dtype=float)
        if z.shape != (idx.size,):
            raise ValueError(
                f"block_argmin({i}) returned shape {z.shape}, expected ({idx.size},)")
        out = p.x.copy()
        out[idx] = z
        return out, q

    def exact_block_min(self, p: Point, i: int) -> np.ndarray:
        """Minimize F over block i with the other blocks fixed at p.x.

        The result is spliced onto p.x so only block-i coordinates change.
        """
        return self._solve_block(p, i)[0]

    def block_min(self, p: Point, i: int) -> Point:
        """The Point at exact_block_min(p, i): the one block_argmin returned,
        when it returns one, else a step from p in block i."""
        x, q = self._solve_block(p, i)
        return self.step(p, x, i) if q is None else q
