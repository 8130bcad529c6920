"""Concrete problem instances with exact block solvers and optimum oracles.

Two families:

* CompositeQuadraticProblem -- least squares F(x) = ||W x - b||^2 plus
  per-block l1 / box / zero terms over any block partition. A block with no
  term, or a zero one, is minimized in closed form through a cached SPD
  factorization; an l1 or box block by an active-set solve: one Cholesky solve
  of the reduced Gram system on a sign or bound pattern, accepted once the
  block's KKT conditions hold. A failed pattern proposes the next one by a
  prox-gradient step on the coordinates that fail, and FISTA iterates propose
  patterns once those proposals repeat. Each block keeps the factor of the
  last reduced system it factored for the next pattern with the same free set.
  The Hessian of the smooth part is 2 W^T W, so the declared constants carry
  that factor of two. A fresh evaluation reads W once, a row chunk at a time.
  A point p.x + d made from a point p is in Gram form: f and grad f grow by
  grad f(p.x) . d + d . G d and 2 G d, G = W^T W, from one product with G
  (with its block rows for a block step). An affine combination of two
  points and the exact line minimizer need none, as G d is half the gradient
  difference, nor does a zero-term block solve. The constructor derives
  every constant and the optimum; with terms, the optimum is cross-validated
  by two independent solves: FISTA run to a gradient-mapping norm at its
  rounding floor, and the active-set solve. Its subclass QuadraticSplitProblem
  is the case with no terms (g = 0), split into two equal blocks.
* NonlinearEqPlProblem -- f(x) = ||g(x)||^2 for a mildly nonlinear
  underdetermined system, gradient-dominated by construction; blocks are
  minimized by a globalised Newton loop on the block Hessian, built from the
  residual and Jacobian each point carries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import BadDimension, BadShape, NotSpd, SolverError
from .linalg import SpdFactorization, factor_spd, solve_cholesky, solve_factored
from .objective import BlockPartition, ObjectiveHandle, Point
from .proxmaps import BoxTerm, L1Term, ZeroTerm, soft_threshold


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = scipy.linalg.qr(rng.standard_normal((n, n)), mode="economic", check_finite=False)
    # row-major like numpy's qr: the order of q sets the BLAS path of W's products
    return np.multiply(q, np.sign(np.diag(r)), order="C")


# beyond 1/eps, W^T W is singular in double precision; near 1e308 it overflows
MAX_COND = 1.0 / np.finfo(float).eps


def _design_matrix(rng: np.random.Generator, dim: int, cond_number: float) -> np.ndarray:
    """Dense W with singular values spanning [1, sqrt(cond_number)] exactly."""
    u = _orthogonal(rng, dim)
    v = _orthogonal(rng, dim)
    sigma = np.geomspace(1.0, math.sqrt(cond_number), dim) if cond_number > 1 \
        else np.ones(dim)
    return u @ (sigma[:, None] * v.T)


# ---------------------------------------------------------------------------
# least squares: ||W x - b||^2 plus per-block terms
# ---------------------------------------------------------------------------

def _term_arrays(terms, partition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-coordinate l1 weight and box bounds of ``terms`` (None = no terms):
    weight 0 and bounds -inf, inf where a coordinate has no such term."""
    weight = np.zeros(partition.total_dim)
    lo = np.full(partition.total_dim, -np.inf)
    hi = np.full(partition.total_dim, np.inf)
    for term, idx in zip(terms or (), partition.blocks):
        if isinstance(term, L1Term):
            weight[idx] = term.weight
        elif isinstance(term, BoxTerm):
            lo[idx], hi[idx] = term.lo, term.hi
        elif not term.is_zero:
            raise SolverError("no exact block solver for this term type")
    return weight, lo, hi


# The l1 / box problem: min_z z^T gram z - 2 lin^T z + sum_j weight_j |z_j| over
# lo <= z <= hi, with per-coordinate weight, lo and hi. lam is the largest
# eigenvalue of gram, so 2 lam is the Lipschitz constant of the smooth part, and
# r(y) = lin - gram y is minus half its gradient.

def _prox_step(y, r, weight, lo, hi, lam) -> np.ndarray:
    """One prox-gradient step from y, where r = r(y), with step size 1 / (2 lam)."""
    return np.clip(soft_threshold(y + r / lam, 0.5 * weight / lam), lo, hi)


def _fista(residual, z, weight, lo, hi, lam):
    """Accelerated prox-gradient iterates from z (Beck & Teboulle, SIAM J.
    Imaging Sci. 2(1), 2009), without end; ``residual(y)`` returns r(y).

    Restarts use the gradient criterion <y - x_new, x_new - x> > 0; a
    function-value criterion would stall at the rounding floor of F long
    before the mapping norm reaches the reference tolerance."""
    x = z
    y = z
    t = 1.0
    while True:
        x_new = _prox_step(y, residual(y), weight, lo, hi, lam)
        if float((y - x_new) @ (x_new - x)) > 0.0:
            t = 1.0
            y = x
            x_new = _prox_step(y, residual(y), weight, lo, hi, lam)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        yield x


# The rounding error of W^T (b - W y) has size eps ||W|| (||b|| + ||W|| ||y||).
# On make_composite(1, 512, 0.4, ("l1", "box"), cond_number=1e4) the reference's
# mapping norm floors at 0.15 to 0.35 of that size (2e-12 to 5e-12), so it
# never reaches an absolute 1e-12; it stops at _REFERENCE_FLOOR times that size.
_REFERENCE_FLOOR = 4.0 * np.finfo(float).eps


def _fista_reference(W, b, weight, lo, hi, lam, max_iters: int = 400_000) -> np.ndarray:
    """FISTA from zero to a gradient-mapping norm at the rounding floor or
    1e-12, whichever is larger, with lam the largest eigenvalue of W^T W.
    First of the two independent optimum solvers.

    r(y) is formed as W^T (b - W y), not W^T b - W^T W y: on
    make_composite(1, 256, 0.4, ("l1", "box"), cond_number=1e4) the Gram form
    floors at a mapping norm of ~4e-12 from rounding, while this form reaches
    1e-12 in ~7,500 steps. Where the mapping norm never reaches the target,
    the last iterate of the budget is accepted at 10 times the target."""
    norm_w, norm_b = math.sqrt(lam), float(np.linalg.norm(b))

    def residual(y):
        return W.T @ (b - W @ y)

    def mapping_norm(x):
        return 2.0 * lam * float(np.linalg.norm(
            x - _prox_step(x, residual(x), weight, lo, hi, lam)))

    def target(x):
        return max(1e-12, _REFERENCE_FLOOR * norm_w
                   * (norm_b + norm_w * float(np.linalg.norm(x))))

    steps = _fista(residual, np.zeros(W.shape[1]), weight, lo, hi, lam)
    for k, x in enumerate(itertools.islice(steps, max_iters)):
        if k % 25 == 0 and mapping_norm(x) <= target(x):
            return x
    if mapping_norm(x) <= 10 * target(x):
        return x
    raise SolverError("prox-gradient reference failed to reach the mapping tolerance")


# Active-set solve. A pattern's reduced solution is accepted when the KKT
# conditions hold to _ACTIVE_SET_RTOL times the block size times the magnitude
# of the terms of r = lin - G z, the order of the residual a backward-stable
# Cholesky solve leaves (Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., sec. 10.1). _ACTIVE_SET_MAX_STEPS bounds the FISTA steps that
# propose patterns, so a returned point has always passed the check.
_ACTIVE_SET_RTOL = 8.0 * np.finfo(float).eps
_ACTIVE_SET_MAX_STEPS = 10_000


@dataclass
class _LastFactor:
    """The free index set and the Cholesky factor of the last reduced system
    factored on one Gram matrix. A pattern with the same free set has the same
    reduced matrix, so reusing the factor gives the same floats."""

    free: np.ndarray | None = None
    factor: np.ndarray | None = None


def _pattern(x, weight, lo, hi) -> bytes:
    """The pattern of x: the side of lo, of hi and, for an l1 coordinate, of
    zero each x_j is."""
    return np.sign(np.stack((x - lo, hi - x, weight * x))).tobytes()


def _pattern_solve(gram, abs_gram, lin, z, weight, lo, hi, lam, last: _LastFactor
                   ) -> tuple[bool, np.ndarray]:
    """(True, the minimizer of the l1 / box problem with the pattern of z held
    fixed) if it is the minimizer over all z, else (False, a point whose
    pattern is the next to try); abs_gram = |gram|, and ``last`` holds the
    factor of the last reduced system factored on gram.

    A coordinate is fixed at lo, at hi or, if it has an l1 weight, at zero;
    the others are free, with sign s_j. With r = lin - gram z, the KKT
    conditions are r_j = weight_j s_j / 2 on free coordinates, which must stay
    in [lo, hi] and keep their sign, and on fixed ones |r_j| <= weight_j / 2 at
    zero, with r_j unbounded below at lo and above at hi.

    In the next point, the coordinates that fail their condition take one
    prox-gradient step from the reduced solution: it pins those that left
    [lo, hi] and frees those whose multiplier r_j has the wrong sign; those
    that crossed zero are pinned at zero. The others keep their value, so the
    rounding in r cannot move a coordinate that meets its condition.
    """
    out = np.clip(z, lo, hi)
    sign = np.sign(weight * out)
    at_lo, at_hi = out == lo, out == hi
    free = ~(at_lo | at_hi) & ((sign != 0.0) | (weight == 0.0))
    half = 0.5 * weight
    target = half * sign
    f = np.flatnonzero(free)
    if f.size:
        out[f] = 0.0
        every = f.size == z.size
        rows = gram if every else gram[f]
        if not np.array_equal(f, last.free):
            last.free, last.factor = f, factor_spd(gram if every else rows[:, f]).factor
        out[f] = solve_cholesky(last.factor, lin[f] - target[f] - rows @ out)
    r = lin - gram @ out
    tol = _ACTIVE_SET_RTOL * z.size * (np.abs(lin) + abs_gram @ np.abs(out) + half)
    zero = sign == 0.0
    r_lo = np.where(at_lo, -np.inf, np.where(zero, -half, target)) - tol
    r_hi = np.where(at_hi, np.inf, np.where(zero, half, target)) + tol
    passed = (r_lo <= r) & (r <= r_hi) & (lo <= out) & (out <= hi) & (sign * out >= 0.0)
    if passed.all():
        return True, out
    step = _prox_step(out, r, weight, lo, hi, lam)
    step[sign * out < 0.0] = 0.0
    return False, np.where(passed, out, step)


def _active_set_solve(gram, lin, z, weight, lo, hi, lam,
                      last: _LastFactor | None = None) -> np.ndarray:
    """Exact minimizer of the l1 / box problem, warm-started at z. ``last``
    holds the factor of the last reduced system factored on this gram; without
    it, the solve keeps its own.

    Primal-dual active set in the sense of Hintermueller, Ito & Kunisch (SIAM
    J. Optim. 13(3), 2002): try the pattern of z; while a pattern fails, try
    the one its own prox step proposes, until a proposal repeats a pattern
    tried in this solve. Then the patterns come from FISTA iterates from z,
    each once the last two iterates share it and if it was not tried yet,
    again followed by the proposals of the patterns that fail."""
    last = _LastFactor() if last is None else last
    abs_gram = np.abs(gram)
    tried = set()
    steps = _fista(lambda y: lin - gram @ y, z, weight, lo, hi, lam)
    candidates = itertools.chain([z], itertools.islice(steps, _ACTIVE_SET_MAX_STEPS))
    previous = None
    for k, x in enumerate(candidates):
        pattern = _pattern(x, weight, lo, hi)
        settled = k == 0 or pattern == previous
        previous = pattern
        while settled and pattern not in tried:
            tried.add(pattern)
            ok, x = _pattern_solve(gram, abs_gram, lin, x, weight, lo, hi, lam, last)
            if ok:
                return x
            pattern = _pattern(x, weight, lo, hi)
    raise SolverError("active-set block solve found no pattern that meets the KKT "
                      f"conditions in {_ACTIVE_SET_MAX_STEPS} FISTA steps")


# A fresh evaluation forms r = W x - b and W^T r one row chunk of W at a time,
# so each chunk is still in cache for its W_c^T r_c: one pass over W in all.
_CHUNK_BYTES = 1 << 20


def _block_slice(idx: np.ndarray) -> slice | np.ndarray:
    """idx as a slice when it is a contiguous range, so that indexing with it
    makes a view; idx itself otherwise."""
    if np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


@dataclass
class CompositeQuadraticProblem:
    """F(x) = ||W x - b||^2 + sum_i g_i(x_i) over the blocks of ``partition``,
    each g_i an l1, box or zero term; ``terms=None`` means every g_i = 0.

    The rest is built once, from these four: G = W^T W and its spectrum
    (``l_global``, ``mu_global``, ``lambda_min_plus``), the rows of G in each
    block (views for a contiguous block), the Cholesky factors of the block
    Gram matrices G_ii with the L_i, and, unless both are given, ``x_star``
    and ``f_star``: in closed form with no terms (``lstsq`` when W is rank
    deficient), otherwise by FISTA cross-validated by the active-set solve.
    """

    W: np.ndarray
    b: np.ndarray
    partition: BlockPartition
    terms: tuple | None
    x_star: np.ndarray | None = None
    f_star: float | None = None
    default_start: np.ndarray | None = None
    l_global: float = field(init=False)
    mu_global: float = field(init=False)
    lambda_min_plus: float = field(init=False)
    l_blocks: tuple[float, ...] = field(init=False)
    _chunks: tuple[slice, ...] = field(init=False, repr=False)
    _gram: np.ndarray = field(init=False, repr=False)
    _gram_rows: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _facts: tuple[SpdFactorization, ...] = field(init=False, repr=False)
    _bounds: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)
    _last: tuple[_LastFactor, ...] = field(init=False, repr=False)

    def __post_init__(self):
        rows, dim = self.W.shape
        step = max(1, _CHUNK_BYTES // (self.W.itemsize * dim))
        self._chunks = tuple(slice(a, a + step) for a in range(0, rows, step))
        self._bounds = _term_arrays(self.terms, self.partition)
        self._last = tuple(_LastFactor() for _ in self.partition.blocks)
        gram = self._gram = self.W.T @ self.W  # exactly symmetric: numpy forms it by syrk
        self._spectrum_and_optimum(gram)
        blocks = [_block_slice(idx) for idx in self.partition.blocks]
        self._gram_rows = tuple(gram[s] for s in blocks)
        self._facts = tuple(factor_spd(g[:, s]) for g, s in zip(self._gram_rows, blocks))
        self.l_blocks = tuple(2.0 * float(np.linalg.eigvalsh(f.source)[-1]) for f in self._facts)

    def _spectrum_and_optimum(self, gram: np.ndarray):
        """The global constants from gram = W^T W and, unless both are given,
        x_star and f_star."""
        lam = np.linalg.eigvalsh(gram)
        positive = lam[lam > 1e-10 * max(1.0, lam[-1])]
        full_rank = positive.size == lam.size
        self.l_global = 2.0 * lam[-1]
        self.mu_global = 2.0 * lam[0] if full_rank else 0.0
        self.lambda_min_plus = float(positive[0])
        if self.x_star is not None and self.f_star is not None:
            return
        value = ObjectiveHandle(self.partition, self.smooth_value, self.block_gradient,
                                terms=self.terms).composite_value
        if self.terms is None:
            if full_rank:
                x = solve_factored(factor_spd(gram), self.W.T @ self.b)
            else:
                x = np.linalg.lstsq(self.W, self.b, rcond=None)[0]
            self.x_star, self.f_star = x, value(x)
            return
        x_a = _fista_reference(self.W, self.b, *self._bounds, lam[-1])
        x_b = _active_set_solve(gram, self.W.T @ self.b, np.zeros(lam.size),
                                *self._bounds, lam[-1])
        f_a, f_b = value(x_a), value(x_b)
        if abs(f_a - f_b) > 1e-10 * (1.0 + abs(f_a)):
            raise SolverError("reference optima disagree beyond tolerance")
        self.x_star, self.f_star = (x_a, f_a) if f_a <= f_b else (x_b, f_b)

    @property
    def mu_blocks(self) -> tuple[float, ...]:
        return (self.mu_global,) * self.partition.n_blocks

    # -- objective callables -------------------------------------------------

    def smooth_value(self, x: np.ndarray) -> float:
        # the residual chunk by chunk, the same floats as value_and_gradient's
        r = np.concatenate([self.W[s] @ x - self.b[s] for s in self._chunks])
        return float(r @ r)

    def value_rounding(self, x: np.ndarray) -> float:
        """Bound on the rounding error of smooth_value(x): residual j is within
        delta_j = (dim + 1) eps (sum_k |W_jk x_k| + |b_j|) of exact (Higham,
        Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.1), so
        f is within 2 sqrt(f) |delta| + |delta|^2 + rows eps f."""
        rows, dim = self.W.shape
        eps = np.finfo(float).eps
        delta = (dim + 1) * eps * float(np.linalg.norm(np.abs(self.W) @ np.abs(x)
                                                       + np.abs(self.b)))
        f = self.smooth_value(x)
        return rows * eps * f + 2.0 * math.sqrt(f) * delta + delta * delta

    def block_gradient(self, x: np.ndarray, i: int) -> np.ndarray:
        # a slice of the full gradient: W^T r summed chunk by chunk is not the
        # same floats as W_i^T r
        return self.value_and_gradient(x)[1][self.partition.blocks[i]]

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """f and grad f in one pass over W: each row chunk W_c gives its share
        r_c of the residual r = W x - b and adds W_c^T r_c to the gradient
        while the chunk is still in the CPU cache."""
        r = np.empty(self.W.shape[0])
        g = np.zeros(x.size)
        for s in self._chunks:
            w = self.W[s]
            r[s] = w @ x - self.b[s]
            g += w.T @ r[s]
        return float(r @ r), 2.0 * g

    def step_value_and_gradient(self, p: Point, x: np.ndarray, i: int | None
                                ) -> tuple[float, np.ndarray]:
        """f and grad f at x = p.x + d in Gram form: f(p.x) + grad f(p.x) . d
        + d . G d and grad f(p.x) + 2 G d. When x differs from p.x in block i
        only, G d = G[:, i] d_i = G[i, :]^T d_i (G = W^T W is exactly
        symmetric) reads only the block's rows of G."""
        idx = slice(None) if i is None else self.partition.blocks[i]
        d = x[idx] - p.x[idx]
        gd = (self._gram if i is None else self._gram_rows[i]).T @ d
        return p.f + float(d @ (p.g[idx] + gd[idx])), p.g + 2.0 * gd

    def affine_value_and_gradient(self, p: Point, q: Point, t: float
                                  ) -> tuple[float, np.ndarray]:
        """f and grad f at p.x + t d, d = q.x - p.x, with no product: G d is
        (q.g - p.g) / 2, so the step t d of step_value_and_gradient gives
        f(p.x) + t d . (p.g + t (q.g - p.g) / 2) and p.g + t (q.g - p.g)."""
        dg = q.g - p.g
        return p.f + t * float((q.x - p.x) @ (p.g + 0.5 * t * dg)), p.g + t * dg

    def line_minimizer(self, p: Point, q: Point) -> float:
        """-(p.g . d) / (d . (q.g - p.g)) for d = q.x - p.x, with no product as
        d . (q.g - p.g) = 2 d . G d; 0 when rounding leaves that at or below 0."""
        d = q.x - p.x
        curv = float(d @ (q.g - p.g))
        return -float(p.g @ d) / curv if curv > 0.0 else 0.0

    def block_argmin(self, p: Point, i: int) -> np.ndarray:
        idx = self.partition.blocks[i]
        term = None if self.terms is None else self.terms[i]
        out = p.x.copy()
        # normal equations of the block least squares with the rest fixed:
        # G_ii (z - x_i) = W_i^T (b - W x) = -g_i / 2
        if term is None or term.is_zero:
            out[idx] += solve_factored(self._facts[i], -0.5 * p.g[idx])
            return out
        gram = self._facts[i].source  # the factorization keeps G_ii
        lin = gram @ p.x[idx] - 0.5 * p.g[idx]
        weight, lo, hi = (a[idx] for a in self._bounds)
        out[idx] = _active_set_solve(gram, lin, p.x[idx], weight, lo, hi,
                                     0.5 * self.l_blocks[i], self._last[i])
        return out

    def handle(self) -> ObjectiveHandle:
        return ObjectiveHandle(
            partition=self.partition,
            smooth_value=self.smooth_value,
            block_gradient=self.block_gradient,
            block_argmin=self.block_argmin,
            terms=self.terms,
            l_global=self.l_global,
            mu_global=self.mu_global,
            l_blocks=self.l_blocks,
            mu_blocks=self.mu_blocks,
            optimum=(self.x_star, self.f_star),
            line_minimizer=self.line_minimizer,
            value_and_gradient=self.value_and_gradient,
            affine_value_and_gradient=self.affine_value_and_gradient,
            step_value_and_gradient=self.step_value_and_gradient)


# The smooth case subclasses the composite, not the other way round:
# blockbench/tracer.py wraps ``handle`` once per class, in the order
# (QuadraticSplitProblem, CompositeQuadraticProblem), so this way each class
# gets one wrapper. With the composite as the subclass, or with one class under
# two names, composite handles would be wrapped twice and every traced count
# doubled.
@dataclass
class QuadraticSplitProblem(CompositeQuadraticProblem):
    """The smooth case g = 0 (``terms=None``) over two equal blocks, with a
    sublevel-set radius from the smallest positive eigenvalue of W^T W."""

    @classmethod
    def from_matrix(cls, W, b, rng: np.random.Generator | None = None
                    ) -> "QuadraticSplitProblem":
        """Instance for f(x) = ||W x - b||^2, started at x_star plus a standard
        normal draw from rng (a generator seeded 0 when None)."""
        W = np.asarray(W, dtype=float)
        b = np.asarray(b, dtype=float)
        dim = W.shape[1]
        if dim % 2 != 0 or dim < 2:
            raise BadDimension("dimension must be even and >= 2")
        prob = cls(W=W, b=b, partition=BlockPartition.halves(dim), terms=None)
        rng = np.random.default_rng(0) if rng is None else rng
        prob.default_start = prob.x_star + rng.standard_normal(dim)
        return prob

    def sublevel_radius(self, x0: np.ndarray) -> float:
        """Distance-to-solution-set radius of the f(x0) sublevel set.

        f(x) - f* = ||W (x - proj)||^2 >= lambda_min_plus * dist(x, X*)^2, so
        every point of the sublevel set is within this radius of a minimizer.
        """
        gap0 = self.smooth_value(np.asarray(x0, dtype=float)) - self.f_star
        return math.sqrt(max(gap0, 0.0) / self.lambda_min_plus)


def make_quadratic(seed: int, dim: int, cond_number: float) -> QuadraticSplitProblem:
    """Seeded dense quadratic with eigenvalue ratio of W^T W == cond_number."""
    if dim % 2 != 0 or dim < 2:
        raise BadDimension("dim must be even and >= 2")
    if not 1.0 <= cond_number <= MAX_COND:  # written so that NaN fails too
        raise BadDimension("cond_number must be in [1, 1/eps]")
    rng = np.random.default_rng(seed)
    W = _design_matrix(rng, dim, cond_number)
    b = rng.standard_normal(dim)
    return QuadraticSplitProblem.from_matrix(W, b, rng)


def make_rank_deficient(seed: int, dim: int, rank: int) -> QuadraticSplitProblem:
    """Quadratic with a deliberate null space (mu = 0, still block-solvable)."""
    if dim % 2 != 0 or not dim // 2 < rank < dim:
        raise BadDimension("need dim even and dim/2 < rank < dim")
    rng = np.random.default_rng(seed)
    u = _orthogonal(rng, dim)
    v = _orthogonal(rng, dim)
    sigma = np.concatenate([np.geomspace(1.0, 3.0, rank), np.zeros(dim - rank)])
    W = u @ (sigma[:, None] * v.T)
    b = rng.standard_normal(dim)
    return QuadraticSplitProblem.from_matrix(W, b, rng)


def make_composite(seed: int, dim: int, gamma: float,
                   kinds: tuple[str, str] = ("l1", "zero"),
                   box_bounds: tuple[float, float] = (-0.5, 0.5),
                   cond_number: float = 50.0) -> CompositeQuadraticProblem:
    """Composite instance; by default l1 (weight gamma) on block 1, nothing on
    block 2. The reference optimum is computed by accelerated prox-gradient and
    cross-validated by the active-set solve before it is trusted."""
    if not gamma >= 0.0:  # written so that NaN fails too
        raise ValueError("gamma must be >= 0")
    if not 1.0 <= cond_number <= MAX_COND:
        raise BadDimension("cond_number must be in [1, 1/eps]")
    if dim % 2 != 0 or dim < 4:
        raise BadDimension("dim must be even and >= 4")
    if len(kinds) != 2:
        raise ValueError("need one term kind per block")
    if len(box_bounds) != 2 or not -math.inf < box_bounds[0] <= box_bounds[1] < math.inf:
        # written so that NaN fails too
        raise ValueError("box_bounds must be finite with lo <= hi")
    rng = np.random.default_rng(seed)
    W = _design_matrix(rng, dim, cond_number)
    b = rng.standard_normal(dim)

    def build_term(kind: str):
        if kind == "zero":
            return ZeroTerm()
        if kind == "l1":
            return L1Term(weight=gamma)
        if kind == "box":
            return BoxTerm(lo=box_bounds[0], hi=box_bounds[1])
        raise ValueError(f"unknown term kind {kind!r}")

    terms = tuple(build_term(k) for k in kinds)
    prob = CompositeQuadraticProblem(W=W, b=b, partition=BlockPartition.halves(dim),
                                     terms=terms)
    prob.default_start = np.clip(prob.x_star + rng.standard_normal(dim), *prob._bounds[1:])
    return prob


# ---------------------------------------------------------------------------
# gradient-dominated nonlinear least squares
# ---------------------------------------------------------------------------

# Block Newton loop: it stops at a block gradient of _NEWTON_GRAD_FLOOR (1 + f).
# Near the minimizer the decrease of f drops below its rounding noise first, so
# a step may raise f by _NEWTON_F_ROUNDING (1 + f). A loop that reaches the step
# cap has not found the block minimum, and fails.
_NEWTON_GRAD_FLOOR = 1e-14
_NEWTON_F_ROUNDING = 4.0 * np.finfo(float).eps
_NEWTON_MAX_STEPS = 50


@dataclass
class NonlinearEqPlProblem:
    """f(x) = ||g(x)||^2 for g(x) = A x + eps sin(x_{1..m}) + c, m < n.

    sigma_min(A) = 1 and |eps| < 1 keep the Jacobian uniformly full-rank:
    lambda_min(J J^T) >= (1 - eps)^2 = mu_j everywhere, so f is gradient
    dominated with PL constant 2 mu_j. The system is consistent by
    construction, so f* = 0 at a known solution point.
    """

    amat: np.ndarray
    c: np.ndarray
    eps: float
    partition: BlockPartition
    x_solution: np.ndarray
    default_start: np.ndarray

    @property
    def mu_j(self) -> float:
        return (1.0 - self.eps) ** 2

    @property
    def n_residuals(self) -> int:
        return self.amat.shape[0]

    def residual(self, x: np.ndarray) -> np.ndarray:
        m = self.n_residuals
        return self.amat @ x + self.eps * np.sin(x[:m]) + self.c

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        m = self.n_residuals
        jac = self.amat.copy()
        jac[np.arange(m), np.arange(m)] += self.eps * np.cos(x[:m])
        return jac

    def smooth_value(self, x: np.ndarray) -> float:
        r = self.residual(x)
        return float(r @ r)

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray, tuple]:
        """f and grad f = 2 J^T r, and (r, J) as the point's cache."""
        r, jac = self.residual(x), self.jacobian(x)
        return float(r @ r), 2.0 * (jac.T @ r), (r, jac)

    def block_gradient(self, x: np.ndarray, i: int) -> np.ndarray:
        return self.value_and_gradient(x)[1][self.partition.blocks[i]]

    def block_argmin(self, start: Point, i: int) -> np.ndarray:
        """Newton's method on block i from the Point start (Nocedal & Wright,
        Numerical Optimization, 2nd ed., sec. 3.4): shift the block Hessian
        until Cholesky succeeds, doubling the shift from half the one the last
        step accepted, halve the step until f falls (within rounding), and stop
        once the block gradient is at its rounding floor or a step no longer
        moves the iterate. Each iterate carries its (r, J). A solve that
        reaches neither within _NEWTON_MAX_STEPS steps raises SolverError."""
        idx, m = self.partition.blocks[i], self.n_residuals
        diag = np.arange(idx.size)
        p, f, g = start.x.copy(), start.f, start.g
        r, jac = start.cache or (self.residual(p), self.jacobian(p))
        shift = smallest = 0.0
        for _ in range(_NEWTON_MAX_STEPS):
            if float(np.linalg.norm(g[idx])) <= _NEWTON_GRAD_FLOOR * (1.0 + f):
                break
            # 2 J_i^T J_i plus the diagonal 2 r_j d^2 g_j / dx_j^2 = -2 eps sin(x_j) r_j
            jac_i = jac[:, idx]
            hess = 2.0 * (jac_i.T @ jac_i)
            curv = np.zeros(p.size)
            curv[:m] = -self.eps * np.sin(p[:m]) * r
            hess[diag, diag] += 2.0 * curv[idx]
            # the search starts from half the last accepted shift, or from 0
            # below the smallest shift: from the accepted shift itself the
            # iterates would never get the plain Newton step back
            shift = 0.5 * shift if 0.5 * shift >= smallest else 0.0
            while True:
                try:
                    fact = factor_spd(hess + shift * np.eye(idx.size) if shift else hess)
                    break
                except NotSpd:
                    smallest = 1e-3 * (1.0 + float(np.abs(hess).max()))
                    shift = max(2.0 * shift, smallest)
            step = solve_factored(fact, g[idx])
            if not np.isfinite(step).all():
                # halving never shrinks a NaN or inf step (from a non-finite gradient)
                raise SolverError("Newton step is not finite")
            trial = p.copy()
            while True:
                trial[idx] = p[idx] - step
                if np.array_equal(trial[idx], p[idx]):
                    return p
                f_trial, g_trial, cache = self.value_and_gradient(trial)
                if f_trial <= f + _NEWTON_F_ROUNDING * (1.0 + f):
                    break
                step = 0.5 * step
            p, f, g, (r, jac) = trial, f_trial, g_trial, cache
        else:
            raise SolverError(f"Newton solve of block {i} did not reach its gradient "
                              f"floor in {_NEWTON_MAX_STEPS} steps")
        return p

    def handle(self) -> ObjectiveHandle:
        return ObjectiveHandle(
            partition=self.partition,
            smooth_value=self.smooth_value,
            block_gradient=self.block_gradient,
            block_argmin=self.block_argmin,
            optimum=(self.x_solution, 0.0),
            value_and_gradient=self.value_and_gradient)

    @property
    def pl_constant(self) -> float:
        """PL modulus of f: ||grad f||^2 >= 2 * pl_constant * (f - f*)."""
        return 2.0 * self.mu_j


def make_nonlinear_pl(seed: int, n: int, m: int,
                      eps: float = 0.25) -> NonlinearEqPlProblem:
    """Consistent nonlinear system with a uniform Jacobian rank bound."""
    if not 0 < m < n:
        raise BadShape("need 0 < m < n")
    if not 0.0 <= eps <= 0.5:
        raise ValueError("need 0 <= eps <= 1/2 for the Jacobian bound")
    if n % 2 != 0:
        raise BadShape("n must be even for the two-halves partition")
    rng = np.random.default_rng(seed)
    u = _orthogonal(rng, m)
    v = _orthogonal(rng, n)
    sigma = np.geomspace(1.0, 2.0, m)  # sigma_min(A) = 1 exactly
    amat = u @ (sigma[:, None] * v[:, :m].T)
    x_solution = 0.5 * rng.standard_normal(n)
    c = -(amat @ x_solution + eps * np.sin(x_solution[:m]))
    start = x_solution + 0.4 * rng.standard_normal(n)
    return NonlinearEqPlProblem(
        amat=amat, c=c, eps=eps, partition=BlockPartition.halves(n), x_solution=x_solution,
        default_start=start)
