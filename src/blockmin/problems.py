"""Concrete problem instances with exact block solvers and optimum oracles.

Two families:

* CompositeQuadraticProblem -- least squares F(x) = ||W x - b||^2 plus
  per-block l1 / box / zero terms over any block partition. A block with no
  term, or a zero one, is minimized in closed form through a cached SPD
  factorization; an l1 or box block by an active-set solve: one Cholesky solve
  of the reduced Gram system on a sign or bound pattern, accepted once the
  block's KKT conditions hold, with exact cyclic coordinate descent proposing
  patterns and, last, finishing the solve. The Hessian of
  the smooth part is 2 W^T W, so the declared constants carry that factor of
  two. ``make_composite`` cross-validates the optimum by two independent
  reference methods. Its subclass QuadraticSplitProblem is the case with no
  terms (g = 0), split into two equal blocks, with the optimum in closed form.
* NonlinearEqPlProblem -- f(x) = ||g(x)||^2 for a mildly nonlinear
  underdetermined system, gradient-dominated by construction; blocks are
  minimized by a globalised Newton loop on the block Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDimension, BadShape, NotSpd, SolverError
from .linalg import SpdFactorization, cholesky, solve_spd, spectral_extremes
from .objective import BlockPartition, ObjectiveHandle
from .proxmaps import BoxTerm, L1Term, ZeroTerm, soft_threshold


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


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

def _composite_value(W, b, terms, partition, x) -> float:
    r = W @ x - b
    total = float(r @ r)
    for i, idx in enumerate(partition.blocks):
        total += float(terms[i].value(x[idx]))
    return total


def _prox_all(terms, partition, z, step_const) -> np.ndarray:
    out = np.asarray(z, dtype=float).copy()
    for i, idx in enumerate(partition.blocks):
        t = terms[i]
        if not t.is_zero:
            out[idx] = t.prox(out[idx], step_const)
    return out


def _grad_mapping_norm(W, b, terms, partition, x, l_smooth) -> float:
    g = 2.0 * (W.T @ (W @ x - b))
    t = _prox_all(terms, partition, x - g / l_smooth, l_smooth)
    return float(np.linalg.norm(l_smooth * (x - t)))


def _fista_reference(W, b, terms, partition, l_smooth, dim,
                     tol: float = 1e-12, max_iters: int = 400_000) -> np.ndarray:
    """Accelerated prox-gradient run to a tiny gradient-mapping norm. First of
    the two independent optimum solvers.

    Restarts use the gradient criterion <y - x_new, x_new - x> > 0; a
    function-value criterion would stall at the rounding floor of F long
    before the mapping norm reaches the tolerance."""
    x = np.zeros(dim)
    y = x.copy()
    t = 1.0
    for k in range(max_iters):
        g = 2.0 * (W.T @ (W @ y - b))
        x_new = _prox_all(terms, partition, y - g / l_smooth, l_smooth)
        if float((y - x_new) @ (x_new - x)) > 0.0:
            t = 1.0
            y = x.copy()
            g = 2.0 * (W.T @ (W @ y - b))
            x_new = _prox_all(terms, partition, y - g / l_smooth, l_smooth)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        if k % 25 == 0 and _grad_mapping_norm(W, b, terms, partition, x, l_smooth) <= tol:
            return x
    if _grad_mapping_norm(W, b, terms, partition, x, l_smooth) <= 10 * tol:
        return x
    raise SolverError("prox-gradient reference failed to reach the mapping tolerance")


def _coordinate_descent(gram, lin, x_init, weight, lo, hi,
                        max_sweeps: int = 100_000) -> np.ndarray:
    """Exact cyclic coordinate descent for
    min_z z^T gram z - 2 lin^T z + sum_j weight[j] |z_j| over lo <= z <= hi,
    with the per-coordinate weight, lo and hi given as Python lists."""
    x = x_init.copy()
    diag = np.diag(gram)
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(x.size):
            r = lin[j] - (gram[j] @ x - diag[j] * x[j])
            if weight[j] > 0.0:
                new = math.copysign(max(abs(r) - 0.5 * weight[j], 0.0), r) / diag[j]
            else:
                new = r / diag[j]
            new = min(hi[j], max(lo[j], new))
            delta = max(delta, abs(new - x[j]))
            x[j] = new
        if delta < 1e-15 * (1.0 + float(np.abs(x).max())):
            break
    return x


# Active-set block solve for l1 and box blocks. A pattern's reduced solution is
# accepted when the KKT conditions hold to _ACTIVE_SET_RTOL times the block size
# times the magnitude of the terms of r = lin - G z, the order of the residual a
# backward-stable Cholesky solve leaves (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., sec. 10.1). When the warm start and one
# prox-gradient step give no such pattern, up to _ACTIVE_SET_ROUNDS rounds of
# _ACTIVE_SET_SWEEPS coordinate-descent sweeps each propose a new one;
# coordinate descent to convergence is the last resort.
_ACTIVE_SET_RTOL = 8.0 * np.finfo(float).eps
_ACTIVE_SET_ROUNDS = 20
_ACTIVE_SET_SWEEPS = 2


def _pattern_solve(gram, lin, z, weight, lo, hi) -> np.ndarray | None:
    """Minimizer of z^T gram z - 2 lin^T z + weight ||z||_1 over lo <= z <= hi
    with the pattern of z held fixed, or None if it is not the minimizer over
    all z. The problem is l1 (weight > 0, infinite bounds) or box (weight 0).

    The pattern is the sign of each coordinate for l1 (0 = fixed at zero) and
    free, at lo or at hi for box. With r = lin - gram z, the KKT conditions are
    r_j = weight sign_j / 2 on free coordinates, which must keep their sign or
    stay in [lo, hi], and on fixed ones |r_j| <= weight / 2 at zero, r_j <= 0 at
    lo and r_j >= 0 at hi.
    """
    if weight > 0.0:
        sign = np.sign(z)
        free = sign != 0.0
        out = np.zeros(z.size)
        target = 0.5 * weight * sign
    else:
        out = np.clip(z, lo, hi)
        free = (out > lo) & (out < hi)
        target = np.zeros(z.size)
    f = np.flatnonzero(free)
    if f.size:
        out[f] = 0.0
        out[f] = solve_spd(cholesky(gram[np.ix_(f, f)]),
                           lin[f] - target[f] - gram[f] @ out)
    r = lin - gram @ out
    tol = _ACTIVE_SET_RTOL * z.size * (np.abs(lin) + np.abs(gram) @ np.abs(out)
                                        + 0.5 * weight)
    fixed = ~free
    if weight > 0.0:
        ok = (np.all(sign[f] * out[f] >= 0.0)
              and np.all(np.abs(r[fixed]) <= 0.5 * weight + tol[fixed]))
    else:
        ok = (np.all((out[f] >= lo) & (out[f] <= hi))
              and np.all(((out[fixed] == lo) & (r[fixed] <= tol[fixed]))
                         | ((out[fixed] == hi) & (r[fixed] >= -tol[fixed]))))
    if ok and np.all(np.abs(r[f] - target[f]) <= tol[f]):
        return out
    return None


def _active_set_solve(gram, lin, z, weight, lo, hi, lam_max) -> np.ndarray:
    """Exact minimizer of the block problem of ``_pattern_solve``, with
    lam_max the largest eigenvalue of gram.

    Primal-dual active set in the sense of Hintermueller, Ito & Kunisch (SIAM
    J. Optim. 13(3), 2002), globalised as in the active-set coordinate descent
    of Friedman, Hastie & Tibshirani (J. Stat. Softw. 33(1), 2010): try the
    pattern of the warm start z, then of one prox-gradient step from it, then
    of every _ACTIVE_SET_SWEEPS coordinate-descent sweeps; coordinate descent
    to convergence settles whatever is left."""
    out = _pattern_solve(gram, lin, z, weight, lo, hi)
    if out is not None:
        return out
    z = np.clip(soft_threshold(z + (lin - gram @ z) / lam_max, 0.5 * weight / lam_max),
                lo, hi)
    n = z.size
    per_coordinate = ([weight] * n, [lo] * n, [hi] * n)
    for _ in range(_ACTIVE_SET_ROUNDS + 1):
        out = _pattern_solve(gram, lin, z, weight, lo, hi)
        if out is not None:
            return out
        z = _coordinate_descent(gram, lin, z, *per_coordinate,
                                max_sweeps=_ACTIVE_SET_SWEEPS)
    return _coordinate_descent(gram, lin, z, *per_coordinate)


def _coordinate_descent_reference(W, b, terms, partition, l_smooth, dim,
                                  tol: float = 1e-12,
                                  max_sweeps: int = 200_000) -> np.ndarray:
    """Exact cyclic coordinate minimization over the full vector, started from
    zero. Second, independent optimum solver."""
    weight = np.zeros(dim)
    lo = np.full(dim, -np.inf)
    hi = np.full(dim, np.inf)
    for i, idx in enumerate(partition.blocks):
        t = terms[i]
        if isinstance(t, L1Term):
            weight[idx] = t.weight
        elif isinstance(t, BoxTerm):
            lo[idx], hi[idx] = t.lo, t.hi
    x = _coordinate_descent(W.T @ W, W.T @ b, np.zeros(dim), weight.tolist(),
                            lo.tolist(), hi.tolist(), max_sweeps)
    if _grad_mapping_norm(W, b, terms, partition, x, l_smooth) > 100 * tol:
        raise SolverError("coordinate-descent reference failed to converge")
    return x


@dataclass
class CompositeQuadraticProblem:
    """F(x) = ||W x - b||^2 + sum_i g_i(x_i) over the blocks of ``partition``,
    each g_i an l1, box or zero term; ``terms=None`` means every g_i = 0.

    The columns of W in each block, the Cholesky factors of their Gram
    matrices and the block constants L_i are built once, from W and the
    partition.
    """

    W: np.ndarray
    b: np.ndarray
    partition: BlockPartition
    terms: tuple | None
    x_star: np.ndarray
    f_star: float
    l_global: float
    mu_global: float
    default_start: np.ndarray
    l_blocks: tuple[float, ...] = field(init=False)
    _cols: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _facts: tuple[SpdFactorization, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self._cols = tuple(self.W[:, idx] for idx in self.partition.blocks)
        self._facts = tuple(cholesky(c.T @ c) for c in self._cols)
        self.l_blocks = tuple(2.0 * spectral_extremes(f.source)[1] for f in self._facts)

    @property
    def mu_blocks(self) -> tuple[float, ...]:
        return (self.mu_global,) * self.partition.n_blocks

    # -- objective callables -------------------------------------------------

    def smooth_value(self, x: np.ndarray) -> float:
        r = self.W @ x - self.b
        return float(r @ r)

    def full_grad(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * (self.W.T @ (self.W @ x - self.b))

    def block_gradient(self, x: np.ndarray, i: int) -> np.ndarray:
        return 2.0 * (self._cols[i].T @ (self.W @ x - self.b))

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """One residual for f and every block gradient; the same floats as
        smooth_value and block_gradient."""
        r = self.W @ x - self.b
        g = np.empty(x.size)
        for c, idx in zip(self._cols, self.partition.blocks):
            g[idx] = 2.0 * (c.T @ r)
        return float(r @ r), g

    def line_minimizer(self, x: np.ndarray, d: np.ndarray) -> float:
        wd = self.W @ d
        curv = 2.0 * float(wd @ wd)
        if curv == 0.0:
            return 0.0
        return -float(self.full_grad(x) @ d) / curv

    def block_argmin(self, x: np.ndarray, i: int) -> np.ndarray:
        idx = self.partition.blocks[i]
        # normal equations of the block least squares with the rest fixed
        lin = self._cols[i].T @ (self.b - self.W @ x + self._cols[i] @ x[idx])
        term = None if self.terms is None else self.terms[i]
        out = x.copy()
        if term is None or term.is_zero:
            out[idx] = solve_spd(self._facts[i], lin)
            return out
        if isinstance(term, L1Term):
            weight, lo, hi = term.weight, -np.inf, np.inf
        elif isinstance(term, BoxTerm):
            weight, lo, hi = 0.0, term.lo, term.hi
        else:
            raise SolverError("no exact block solver for this term type")
        # the factorization keeps the block Gram matrix as its source
        out[idx] = _active_set_solve(self._facts[i].source, lin, x[idx], weight, lo, hi,
                                     0.5 * self.l_blocks[i])
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
            value_and_gradient=self.value_and_gradient)


# The smooth case subclasses the composite, not the other way round:
# blockbench/tracer.py wraps ``handle`` once per class, in the order
# (QuadraticSplitProblem, CompositeQuadraticProblem), so this way each class
# gets one wrapper. With the composite as the subclass, or with one class under
# two names, composite handles would be wrapped twice and every traced count
# doubled.
@dataclass
class QuadraticSplitProblem(CompositeQuadraticProblem):
    """The smooth case g = 0 (``terms=None``) over two equal blocks, with the
    optimum in closed form and the smallest positive eigenvalue of W^T W."""

    lambda_min_plus: float = field(kw_only=True)

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
        gram = W.T @ W
        lam = np.linalg.eigvalsh(gram)
        positive = lam[lam > 1e-10 * max(1.0, lam[-1])]
        full_rank = positive.size == dim
        if full_rank:
            x_star = solve_spd(cholesky(gram), W.T @ b)
        else:
            x_star = np.linalg.lstsq(W, b, rcond=None)[0]
        res = W @ x_star - b
        if rng is None:
            rng = np.random.default_rng(0)
        start = x_star + rng.standard_normal(dim)
        return cls(
            W=W, b=b, partition=BlockPartition.halves(dim), terms=None,
            x_star=x_star, f_star=float(res @ res), l_global=2.0 * lam[-1],
            mu_global=2.0 * lam[0] if full_rank else 0.0, default_start=start,
            lambda_min_plus=float(positive[0]))

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
    if not cond_number >= 1.0:  # written so that NaN fails too
        raise BadDimension("cond_number must be >= 1")
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
    cross-validated by coordinate descent before it is trusted."""
    if not gamma >= 0.0:  # written so that NaN fails too
        raise ValueError("gamma must be >= 0")
    if not cond_number >= 1.0:
        raise BadDimension("cond_number must be >= 1")
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
    partition = BlockPartition.halves(dim)

    def build_term(kind: str):
        if kind == "zero":
            return ZeroTerm()
        if kind == "l1":
            return L1Term(weight=gamma)
        if kind == "box":
            return BoxTerm(lo=box_bounds[0], hi=box_bounds[1])
        raise ValueError(f"unknown term kind {kind!r}")

    terms = tuple(build_term(k) for k in kinds)
    lam = np.linalg.eigvalsh(W.T @ W)
    l_global = 2.0 * lam[-1]

    x_a = _fista_reference(W, b, terms, partition, l_global, dim)
    x_b = _coordinate_descent_reference(W, b, terms, partition, l_global, dim)
    f_a = _composite_value(W, b, terms, partition, x_a)
    f_b = _composite_value(W, b, terms, partition, x_b)
    if abs(f_a - f_b) > 1e-10 * (1.0 + abs(f_a)):
        raise SolverError("reference optima disagree beyond tolerance")
    x_star, f_star = (x_a, f_a) if f_a <= f_b else (x_b, f_b)

    start = x_star + rng.standard_normal(dim)
    for i, idx in enumerate(partition.blocks):
        if isinstance(terms[i], BoxTerm):
            start[idx] = np.clip(start[idx], terms[i].lo, terms[i].hi)
    return CompositeQuadraticProblem(
        W=W, b=b, partition=partition, terms=terms, x_star=x_star, f_star=f_star,
        l_global=l_global, mu_global=2.0 * lam[0], default_start=start)


# ---------------------------------------------------------------------------
# gradient-dominated nonlinear least squares
# ---------------------------------------------------------------------------

# Block Newton loop: it stops at a block gradient of _NEWTON_GRAD_FLOOR (1 + f).
# Near the minimizer the decrease of f drops below its rounding noise first, so
# a step may raise f by _NEWTON_F_ROUNDING (1 + f). The step cap bounds a loop
# whose floor is never reached.
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
    mu_j: float
    partition: BlockPartition
    x_solution: np.ndarray
    default_start: np.ndarray

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

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """One residual and Jacobian for f and grad f = 2 J^T r."""
        r = self.residual(x)
        return float(r @ r), 2.0 * (self.jacobian(x).T @ r)

    def block_gradient(self, x: np.ndarray, i: int) -> np.ndarray:
        return self.value_and_gradient(x)[1][self.partition.blocks[i]]

    def _block_hessian(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        m = self.n_residuals
        jac = self.jacobian(x)[:, idx]
        hess = 2.0 * (jac.T @ jac)
        r = self.residual(x)
        curv = np.zeros(x.size)
        curv[:m] = -self.eps * np.sin(x[:m]) * r
        hess[np.arange(idx.size), np.arange(idx.size)] += 2.0 * curv[idx]
        return hess

    def block_argmin(self, x: np.ndarray, i: int) -> np.ndarray:
        """Newton's method on block i (Nocedal & Wright, Numerical Optimization,
        2nd ed., sec. 3.4): shift the block Hessian until Cholesky succeeds,
        halve the step until f falls (within rounding), and stop once the block
        gradient is at its rounding floor or a step no longer moves the iterate."""
        idx = self.partition.blocks[i]
        p = x.copy()
        f, g = self.value_and_gradient(p)
        for _ in range(_NEWTON_MAX_STEPS):
            if float(np.linalg.norm(g[idx])) <= _NEWTON_GRAD_FLOOR * (1.0 + f):
                break
            hess = self._block_hessian(p, idx)
            shift = 0.0
            while True:
                try:
                    fact = cholesky(hess + shift * np.eye(idx.size))
                    break
                except NotSpd:
                    shift = max(2.0 * shift, 1e-3 * (1.0 + float(np.abs(hess).max())))
            step = solve_spd(fact, g[idx])
            trial = p.copy()
            while True:
                trial[idx] = p[idx] - step
                if np.array_equal(trial[idx], p[idx]):
                    return p
                f_trial, g_trial = self.value_and_gradient(trial)
                if f_trial <= f + _NEWTON_F_ROUNDING * (1.0 + f):
                    break
                step = 0.5 * step
            p, f, g = trial, f_trial, g_trial
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
        amat=amat, c=c, eps=eps, mu_j=(1.0 - eps) ** 2,
        partition=BlockPartition.halves(n), x_solution=x_solution,
        default_start=start)
