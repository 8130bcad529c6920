"""Solvers: alternating minimization, its accelerated variant, and a fast
gradient baseline, all producing full per-iteration traces.

Iteration counting follows the per-block convention: one alternating
minimization iteration is one block minimization (a full sweep over n blocks
is n iterations), so all three methods spend comparable work per recorded k.
Sweep boundaries sit at k % n_blocks == 0.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import NoPositiveRoot, SolverError
from .objective import ObjectiveHandle, Point

# iterate/coefficient magnitude beyond which a run is declared divergent,
# far outside any sane optimization state yet small enough that the state
# updates cannot overflow before the check fires
_STATE_LIMIT = 1e50

# The slope search stops at a bracket this narrow or after this many probes.
# Next to a minimizer the slopes are rounding noise and shrink the bracket
# slowly: 20 to 40 probes within 1e-15 of the solution of make_nonlinear_pl,
# against 3 to 7 in AAM runs on it to a gap of 1e-10.
_LINE_SEARCH_TOL = 1e-10
_LINE_SEARCH_MAX_PROBES = 40

# A decrease f(y) - f(x^k) at most this times (1 + |f(y)|) is rounding: an
# AAM coefficient equation without a positive root then means convergence.
_F_ROUNDING = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters shared by all solvers.

    After each record a run stops at F(x^k) - F* <= target_gap (when set and
    the handle knows F*), then at k = max_iters; an iteration ends it once its
    gradient norm is at most grad_tolerance (AM: smooth objectives only).
    mu_assumed is the strong convexity AAM assumes (0: none; FGM takes 0
    only); l_known = None selects AAM's adaptive coefficient rule and FGM the
    handle's L.
    """

    max_iters: int = 100
    target_gap: float | None = None
    grad_tolerance: float = 1e-13
    mu_assumed: float = 0.0
    l_known: float | None = None

    def __post_init__(self):
        # every range check is written so that NaN fails it
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")
        if not self.grad_tolerance > 0:
            raise ValueError("grad_tolerance must be positive")
        if self.target_gap is not None and not self.target_gap > 0:
            raise ValueError("target_gap must be positive when set")
        if not self.mu_assumed >= 0:
            raise ValueError("mu_assumed must be >= 0")
        if self.l_known is not None and not 0 < self.l_known >= self.mu_assumed:
            raise ValueError("l_known must be positive and >= mu_assumed when set")


@dataclass
class IterationRecord:
    """One trace row; acceleration fields stay None for plain methods.

    composite_value is F(x^k) = f(x^k) + sum_i g_i(x^k_i), the value every
    certificate bounds. AAM and FGM accept g == 0 only, so for them it is
    f(x^k) bit for bit.
    """

    k: int
    x: np.ndarray
    composite_value: float
    grad_norm: float
    block: int | None = None
    beta: float | None = None
    a: float | None = None
    a_sum: float | None = None
    tau: float | None = None
    y: np.ndarray | None = None
    v: np.ndarray | None = None
    f_y: float | None = None
    grad_y: np.ndarray | None = None
    wall_time: float = 0.0


@dataclass
class SolverTrace:
    method: str
    records: list[IterationRecord]
    status: str
    n_blocks: int

    @property
    def final(self) -> IterationRecord:
        return self.records[-1]

    def gaps(self, f_star: float) -> np.ndarray:
        return np.asarray([r.composite_value for r in self.records]) - f_star

    def sweep_records(self) -> list[IterationRecord]:
        """Records at full-sweep boundaries (k multiple of n_blocks)."""
        return [r for r in self.records if r.k % self.n_blocks == 0]


def exact_line_search(h: ObjectiveHandle, p: Point, q: Point) -> tuple[float, Point]:
    """Minimize f(p.x + beta (q.x - p.x)) over beta in [0, 1]; returns (beta, y).

    The handle's line minimizer proposes one point between p and q. Without
    one, Illinois regula falsi (Dowell & Jarratt, BIT 11(2), 1971) proposes
    them, seeking a zero of phi'(t) = grad f(p.x + t d) . d from the slopes p
    and q carry, while its bracket [lo, hi] has phi'(lo) < 0 < phi'(hi) (else
    a convex phi is least at an end). y is the lowest of p, the proposed
    points (only the lowest so far is kept) and q itself, so f(y) exceeds
    neither f(p.x) nor f(q.x).
    """
    d = q.x - p.x
    if not np.any(d):
        return 0.0, p
    beta, y = 0.0, p
    if h.line_minimizer is not None:
        t = float(h.line_minimizer(p, q))
        if 0.0 < t < 1.0 and (z := h.affine(p, q, t)).f < p.f:
            beta, y = t, z
        return (1.0, q) if q.f < y.f else (beta, y)
    lo, hi = 0.0, 1.0
    s_lo, s_hi = float(p.g @ d), float(q.g @ d)
    kept = 0  # the end the last probe left in place: -1 lo, 1 hi
    for _ in range(_LINE_SEARCH_MAX_PROBES):
        if not (s_lo < 0.0 < s_hi and hi - lo > _LINE_SEARCH_TOL):
            break
        t = (lo * s_hi - hi * s_lo) / (s_hi - s_lo)
        if not lo < t < hi:
            break  # the secant step rounds onto an end, whose slope is zero to rounding
        z = h.affine(p, q, t)
        if z.f < y.f:
            beta, y = t, z
        s = float(z.g @ d)
        if s < 0.0:
            lo, s_lo = t, s
            if kept == 1:
                s_hi *= 0.5  # hi kept twice in a row: the Illinois step
            kept = 1
        else:
            hi, s_hi = t, s
            if kept == -1:
                s_lo *= 0.5
            kept = -1
    return (1.0, q) if q.f < y.f else (beta, y)


def greedy_block(h: ObjectiveHandle, grad_y: np.ndarray) -> int:
    """Block with the largest norm of grad_y, the gradient at the extrapolated
    point; ties go to the lowest index."""
    best, best_norm = 0, -1.0
    for i, idx in enumerate(h.partition.blocks):
        ni = float(np.linalg.norm(grad_y[idx]))
        if ni > best_norm:
            best, best_norm = i, ni
    return best


def _largest_root(lead: float, lin: float, const: float) -> float:
    """Largest positive root of lead a^2 - lin a - const = 0, or const / lin
    (needing lin, const > 0) when lead <= 0; raises NoPositiveRoot if none.

    Both coefficient rules call it with lin, const >= 0, so for lead > 0 the
    root formula adds only non-negative terms and cancels nothing: its
    relative residual stays at the rounding level without any refinement.
    """
    if lead <= 0.0:
        a = const / lin if lin > 0.0 and const > 0.0 else 0.0
    else:
        disc = lin * lin + 4.0 * lead * const
        a = (lin + math.sqrt(disc)) / (2.0 * lead)
    if a <= 0.0:
        raise NoPositiveRoot("coefficient equation has no positive root")
    return a


def choose_a_known_L(a_sum: float, tau: float, mu: float, l_const: float,
                     n_blocks: int) -> float:
    """Coefficient satisfying a^2 / ((A + a)(tau + mu a)) = 1/(L n).

    Expands to (Ln - mu) a^2 - (tau + mu A) a - A tau = 0; returns the largest
    positive root. Ln - mu <= 0 only in the degenerate one-block, mu == L case.
    """
    if a_sum < 0 or tau < 1.0 - 1e-12 or l_const <= 0 or n_blocks < 1:
        raise ValueError("invalid coefficient-equation inputs")
    if not (0.0 <= mu <= l_const):
        raise ValueError("need 0 <= mu <= L")
    return _largest_root(l_const * n_blocks - mu, tau + mu * a_sum, a_sum * tau)


def choose_a_adaptive(f_y: float, f_next: float, grad_y: np.ndarray,
                      y: np.ndarray, a_sum: float, tau: float, mu: float,
                      v: np.ndarray) -> float:
    """Coefficient from the measured decrease f(y) - f(x_next).

    Solves, for the largest positive a,
        f(y) - a^2 G / (2 (A+a)(tau+mu a)) + mu tau a V / (2 (A+a)(tau+mu a))
            = f(x_next)
    with G = ||grad_y||^2 and V = ||v - y||^2. Cleared of denominators this is
    (G - 2 delta mu) a^2 - (mu tau V + 2 delta (mu A + tau)) a - 2 delta A tau
    = 0 with delta = f(y) - f(x_next) >= 0. The leading coefficient is <= 0
    only within rounding of the optimum (delta ~ gap bound) or when mu exceeds
    the PL modulus of f. Raises NoPositiveRoot when no progress is measurable
    (converged), or when lead <= 0 at A = 0.
    """
    vy = np.asarray(v, dtype=float) - np.asarray(y, dtype=float)
    delta = f_y - f_next
    if delta < 0.0:
        delta = 0.0  # block minimization guarantees descent; clip rounding
    return _largest_root(float(grad_y @ grad_y) - 2.0 * delta * mu,
                         mu * tau * float(vy @ vy) + 2.0 * delta * (mu * a_sum + tau),
                         2.0 * delta * a_sum * tau)


def _run(method: str, h: ObjectiveHandle, x0: np.ndarray, cfg: SolverConfig,
         iterations: Callable[[Point], Iterator[tuple[Point, dict]]]) -> SolverTrace:
    """The run loop of every solver: iterations(x^0) yields (Point, record
    fields) for k = 0, 1, ... and returns a status if it ends the run. Each
    record takes F and ||grad f|| from the Point's f and g; after each one
    the run stops at target_gap, then at max_iters."""
    p0 = h.evaluate(np.array(x0, dtype=float))
    t_start = time.perf_counter()
    steps = iterations(p0)
    records: list[IterationRecord] = []
    while True:
        try:
            p, fields = next(steps)
        except StopIteration as stop:
            status = stop.value
            break
        rec = IterationRecord(k=len(records), x=p.x.copy(),
                              composite_value=h.composite_value(p.x, smooth=p.f),
                              grad_norm=float(np.linalg.norm(p.g)), **fields,
                              wall_time=time.perf_counter() - t_start)
        records.append(rec)
        met = (cfg.target_gap is not None and h.optimum is not None
               and rec.composite_value - float(h.optimum[1]) <= cfg.target_gap)
        if met or rec.k == cfg.max_iters:
            status = "target_gap" if met else "max_iters"
            break
    return SolverTrace(method, records, status, h.n_blocks)


def _add_to_lower_model(h: ObjectiveHandle, v: Point, y: Point, a: float, a_sum: float,
                        tau: float, mu: float) -> tuple[Point, float, float] | None:
    """(v', A + a, tau') once the term of a at y joins psi (see run_aam), v' a
    step from v; None when a or v' is not finite or exceeds _STATE_LIMIT."""
    if not math.isfinite(a) or a > _STATE_LIMIT:
        return None
    a_sum += a
    tau_next = 1.0 + mu * a_sum
    v_next = (tau * v.x + mu * a * y.x - a * y.g) / tau_next
    if not np.all(np.isfinite(v_next)) or float(np.abs(v_next).max()) > _STATE_LIMIT:
        return None
    return h.step(v, v_next), a_sum, tau_next


def run_am(h: ObjectiveHandle, x0: np.ndarray, cfg: SolverConfig) -> SolverTrace:
    """Alternating minimization: cyclic exact block minimization.

    Iteration k minimizes F over block (k - 1) % n_blocks, so records at k,
    k+1, ..., k+n cover one full sweep with all the intermediate half-step
    points.
    """
    if h.block_argmin is None:
        raise ValueError("alternating minimization needs block_argmin")

    def iterations(p: Point):
        yield p, {}
        for i in itertools.cycle(range(h.n_blocks)):
            if h.is_smooth() and float(np.linalg.norm(p.g)) <= cfg.grad_tolerance:
                return "grad_tolerance"
            p = h.block_min(p, i)
            yield p, dict(block=i)

    return _run("am", h, x0, cfg, iterations)


def run_aam(h: ObjectiveHandle, x0: np.ndarray, cfg: SolverConfig) -> SolverTrace:
    """Accelerated alternating minimization.

    Per iteration: exact line search between the iterate and the momentum
    point, greedy block choice at the extrapolated point, exact block
    minimization, coefficient update (closed-form when l_known is set,
    adaptive from the measured decrease otherwise), then the momentum update.
    Smooth unconstrained objectives only.

    The momentum point v^k is the minimizer of the lower model (Nesterov's
    estimating sequence, Introductory Lectures on Convex Optimization, 2004)
    psi_k(x) = ||x - x^0||^2 / 2
               + sum_{j<=k} a_j (f(y_j) + <grad f(y_j), x - y_j> + (mu/2) ||x - y_j||^2),
    whose Hessian is tau_k I with tau_k = 1 + mu A_k. So the state is
    (v, tau, A), and adding the term of a_{k+1} moves the minimizer to
    v^{k+1} = (tau_k v^k + mu a y - a grad f(y)) / tau_{k+1}.
    """
    if h.block_argmin is None:
        raise ValueError("accelerated alternating minimization needs block_argmin")
    if not h.is_smooth():
        raise SolverError("accelerated solver supports g == 0 only")
    mu = cfg.mu_assumed

    def iterations(x: Point):
        v, tau, a_sum = x, 1.0, 0.0
        yield x, dict(a=0.0, a_sum=a_sum, tau=tau, v=x.x)
        while True:
            beta, y = exact_line_search(h, x, v)
            if float(np.linalg.norm(y.g)) <= cfg.grad_tolerance:
                return "grad_tolerance"
            i = greedy_block(h, y.g)
            x = h.block_min(y, i)
            try:
                if cfg.l_known is not None:
                    a = choose_a_known_L(a_sum, tau, mu, cfg.l_known, h.n_blocks)
                else:
                    a = choose_a_adaptive(y.f, x.f, y.g, y.x, a_sum, tau, mu, v.x)
            except NoPositiveRoot:
                # Beyond rounding, the adaptive rule lacks a root only at k = 1
                # (A = 0) with ||grad f(y)||^2 <= 2 mu delta, delta = f(y) -
                # f(x^k): then mu > mu_PL, as delta <= f(y) - f* <=
                # ||grad f(y)||^2 / (2 mu_PL).
                delta = y.f - x.f
                too_large = cfg.l_known is None and delta > _F_ROUNDING * (1.0 + abs(y.f))
                return "mu_too_large" if too_large else "converged"
            moved = _add_to_lower_model(h, v, y, a, a_sum, tau, mu)
            if moved is None:
                return "diverged"
            v, a_sum, tau = moved
            yield x, dict(block=i, beta=beta, a=a, a_sum=a_sum, tau=tau, y=y.x, v=v.x,
                          f_y=y.f, grad_y=y.g)

    return _run("aam", h, x0, cfg, iterations)


def run_fgm(h: ObjectiveHandle, x0: np.ndarray, cfg: SolverConfig) -> SolverTrace:
    """Fast gradient baseline: the similar-triangles method (Gasnikov &
    Nesterov, Comput. Math. Math. Phys. 58(1), 2018) on AAM's lower model
    at mu = 0. With a^2 = (A + a) / L and t = a / (A + a) it makes
    y = x + t (v - x), moves v as AAM does with grad f(y), and sets
    x' = x + t (v' - x), which is y - grad f(y) / L.
    """
    l_const = cfg.l_known if cfg.l_known is not None else h.l_global
    if l_const is None:
        raise SolverError("fast gradient method needs a known L")
    if not h.is_smooth():
        raise SolverError("fast gradient method supports g == 0 only")
    if cfg.mu_assumed != 0.0:
        raise SolverError("fast gradient method supports mu_assumed == 0 only")

    def iterations(x: Point):
        v, tau, a_sum = x, 1.0, 0.0
        yield x, dict(a=0.0, a_sum=a_sum, tau=tau, v=x.x)
        while True:
            if float(np.linalg.norm(x.g)) <= cfg.grad_tolerance:
                return "grad_tolerance"
            a = choose_a_known_L(a_sum, tau, 0.0, l_const, 1)
            t = a / (a_sum + a)
            moved = _add_to_lower_model(h, v, h.affine(x, v, t), a, a_sum, tau, 0.0)
            if moved is None:
                return "diverged"
            v, a_sum, tau = moved
            # x' = v' + (1 - t)(x - v'), made from v', whose chain is refreshed:
            # made from x, f would keep the rounding of every f since x^0
            x = h.affine(v, x, 1.0 - t)
            yield x, dict(a=a, a_sum=a_sum, tau=tau, v=v.x)

    return _run("fgm", h, x0, cfg, iterations)
