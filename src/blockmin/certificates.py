"""Per-iteration certificates for solver traces.

Each check re-evaluates one proved inequality along a trace and reports
bound, measured value and slack row by row. Slack is oriented so that a
non-negative value means the inequality holds: bound - measured for upper
bounds on the gap, measured - bound for lower bounds on quantities that must
grow. A row fails when its slack drops below -FAIL_TOL * (1 + |bound|);
slacks in (-FAIL_TOL, -WARN_TOL) scaled are counted as warnings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TooShort
from .objective import ObjectiveHandle
from .proxmaps import prox_map
from .solvers import SolverTrace

FAIL_TOL = 1e-8
WARN_TOL = 1e-10

@dataclass(frozen=True)
class CertificateRow:
    k: int
    bound_value: float
    measured_value: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class CertificateReport:
    kind: str
    rows: tuple[CertificateRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def worst_slack(self) -> float:
        return min((r.slack for r in self.rows), default=0.0)

    @property
    def first_failure(self) -> int | None:
        for r in self.rows:
            if not r.passed:
                return r.k
        return None

    @property
    def n_warnings(self) -> int:
        return sum(1 for r in self.rows
                   if r.passed and r.slack < -WARN_TOL * (1.0 + abs(r.bound_value)))


def _row(k: int, bound: float, measured: float, tol: float,
         lower_bound: bool = False, rounding: float = 0.0) -> CertificateRow:
    slack = (measured - bound) if lower_bound else (bound - measured)
    return CertificateRow(k=k, bound_value=bound, measured_value=measured, slack=slack,
                          passed=slack >= -(tol * (1.0 + abs(bound)) + rounding))


def _need(trace: SolverTrace, method: str, what: str):
    if trace.method != method:
        raise ValueError(f"{what} expects a {method!r} trace, got {trace.method!r}")


def am_linear_factor(l_blocks, mu_blocks) -> float:
    """Per-sweep AM contraction factor prod_i (1 - mu_i/L_i)."""
    factor = 1.0
    for li, mi in zip(l_blocks, mu_blocks):
        if li <= 0 or mi <= 0 or mi > li:
            raise ValueError("need 0 < mu_i <= L_i for every block")
        factor *= 1.0 - mi / li
    return factor


def aam_main_bound(k: int, l_global: float, mu: float, n_blocks: int,
                   radius: float) -> float:
    """Accelerated bound on f(x^k) - f*: n L R^2 min{4/k^2, (1 - sqrt(mu/(nL)))^{k-1}}."""
    nl = n_blocks * l_global
    return nl * radius ** 2 * min(4.0 / k ** 2, (1.0 - math.sqrt(mu / nl)) ** (k - 1))


def check_am_linear(trace: SolverTrace, l_blocks, mu_blocks, f_star: float,
                    tol: float = FAIL_TOL) -> CertificateReport:
    """Per-sweep contraction F(next) - F* <= prod_i (1 - mu_i/L_i) (F(prev) - F*)."""
    _need(trace, "am", "am_linear_pl")
    if l_blocks is None or mu_blocks is None or f_star is None:
        raise ValueError("am_linear_pl needs per-block L_i, mu_i and F*")
    factor = am_linear_factor(l_blocks, mu_blocks)
    sweeps = trace.sweep_records()
    gaps = [r.composite_value - f_star for r in sweeps]
    rows = [_row(s, factor * gaps[s - 1], gaps[s], tol) for s in range(1, len(gaps))]
    return CertificateReport("am_linear_pl", tuple(rows))


def check_nearly_pl(trace: SolverTrace, l_blocks, mu_blocks, f_star: float,
                    tol: float = FAIL_TOL) -> CertificateReport:
    """Constrained-composite contraction with factor prod_i (1 - mu_i/(L_i+mu_i)).

    Also verifies the intermediate half-step inequalities
    mu_i (F(after) - F*) <= L_i (F(before) - F(after)) for every block step.
    """
    _need(trace, "am", "nearly_pl_combined")
    if l_blocks is None or mu_blocks is None or f_star is None:
        raise ValueError("nearly_pl_combined needs per-block L_i, mu_i and F*")
    factor = 1.0
    for li, mi in zip(l_blocks, mu_blocks):
        if li <= 0 or mi <= 0:
            raise ValueError("need positive mu_i, L_i")
        factor *= 1.0 - mi / (li + mi)
    rows = []
    recs = trace.records
    for j in range(1, len(recs)):
        i = recs[j].block
        drop = recs[j - 1].composite_value - recs[j].composite_value
        rows.append(_row(recs[j].k, l_blocks[i] * drop,
                         mu_blocks[i] * (recs[j].composite_value - f_star), tol))
    sweeps = trace.sweep_records()
    gaps = [r.composite_value - f_star for r in sweeps]
    for s in range(1, len(gaps)):
        rows.append(_row(sweeps[s].k, factor * gaps[s - 1], gaps[s], tol))
    return CertificateReport("nearly_pl_combined", tuple(rows))


def check_aam_main(trace: SolverTrace, l_global: float, mu: float, n_blocks: int,
                   radius: float, f_star: float, tol: float = FAIL_TOL) -> CertificateReport:
    """Accelerated bound f(x^k) - f* <= aam_main_bound(k, L, mu, n, R)."""
    _need(trace, "aam", "aam_main")
    if l_global is None or f_star is None or radius is None:
        raise ValueError("aam_main needs L, R and F*")
    if not 0.0 <= mu < n_blocks * l_global:
        raise ValueError("need 0 <= mu < n L")
    rows = [_row(r.k, aam_main_bound(r.k, l_global, mu, n_blocks, radius),
                 r.composite_value - f_star, tol) for r in trace.records[1:]]
    return CertificateReport("aam_main", tuple(rows))


def check_aam_Ak(trace: SolverTrace, l_global: float, mu: float, n_blocks: int,
                 tol: float = FAIL_TOL) -> CertificateReport:
    """Coefficient-sum growth A_k >= k^2/(4 L n), A_1 >= 1/(nL), plus the
    geometric branch (1/(nL)) (1 - sqrt(mu/(nL)))^{-k+1} when mu > 0."""
    _need(trace, "aam", "aam_Ak_growth")
    if l_global is None:
        raise ValueError("aam_Ak_growth needs L")
    nl = n_blocks * l_global
    geo = 1.0 - math.sqrt(mu / nl) if mu > 0 else None
    rows = []
    for r in trace.records[1:]:
        bound = r.k ** 2 / (4.0 * nl)
        if r.k == 1:
            bound = max(bound, 1.0 / nl)
        if geo is not None:
            bound = max(bound, (1.0 / nl) * geo ** (-r.k + 1))
        rows.append(_row(r.k, bound, r.a_sum, tol, lower_bound=True))
    return CertificateReport("aam_Ak_growth", tuple(rows))


def check_aam_adaptive(trace: SolverTrace, mu_true: float, f_star: float,
                       tol: float = FAIL_TOL) -> CertificateReport:
    """Product bound for the mu-unaware run on a PL objective:

    f(x^k) - F* <= prod_{j<=k} (1 - mu a_j^2 / A_j) (f(x^0) - F*).
    """
    _need(trace, "aam", "aam_adaptive")
    if f_star is None:
        raise ValueError("aam_adaptive needs F*")
    gap0 = trace.records[0].composite_value - f_star
    prod = 1.0
    rows = []
    for r in trace.records[1:]:
        prod *= max(0.0, 1.0 - mu_true * r.a * r.a / r.a_sum)
        rows.append(_row(r.k, prod * gap0, r.composite_value - f_star, tol))
    return CertificateReport("aam_adaptive", tuple(rows))


def check_am_sublinear(trace: SolverTrace, l_blocks, radius: float, f_star: float,
                       tol: float = FAIL_TOL) -> CertificateReport:
    """Non-strongly-convex AM bound over sweeps N >= 2:

    F(x^N) - F* <= max{(F(x^0) - F*)/2^{(N-1)/2}, 8 min_i L_i R^2 / (N - 1)}.
    """
    _need(trace, "am", "am_sublinear")
    if l_blocks is None or radius is None or f_star is None:
        raise ValueError("am_sublinear needs L_i, R and F*")
    sweeps = trace.sweep_records()
    if len(sweeps) < 3:
        raise TooShort("need at least two complete sweeps")
    gaps = [r.composite_value - f_star for r in sweeps]
    lmin = min(l_blocks)
    rows = []
    for n in range(2, len(gaps)):
        bound = max(gaps[0] / 2.0 ** ((n - 1) / 2.0),
                    8.0 * lmin * radius * radius / (n - 1))
        rows.append(_row(n, bound, gaps[n], tol))
    return CertificateReport("am_sublinear", tuple(rows))


def check_sufficient_decrease(h: ObjectiveHandle, trace: SolverTrace, l_blocks,
                              tol: float = FAIL_TOL) -> CertificateReport:
    """||G_{L_i}^i(before)||^2 <= 2 L_i (F(before) - F(after)) per block step."""
    _need(trace, "am", "sufficient_decrease")
    if l_blocks is None:
        raise ValueError("sufficient_decrease needs per-block L_i")
    rows = []
    recs = trace.records
    for j in range(1, len(recs)):
        i = recs[j].block
        g = prox_map(h, recs[j - 1].x, i, l_blocks[i]).g_map
        drop = recs[j - 1].composite_value - recs[j].composite_value
        rows.append(_row(recs[j].k, 2.0 * l_blocks[i] * drop, float(g @ g), tol))
    return CertificateReport("sufficient_decrease", tuple(rows))


def check_prox_pl(h: ObjectiveHandle, trace: SolverTrace, mu_blocks, f_star: float,
                  tol: float = FAIL_TOL) -> CertificateReport:
    """Proximal-PL lemma F* >= F(x) - D_j(x, mu_j) / (2 mu_j) at every AM
    iterate x, for the block j the step did not minimize.

    The lemma needs the other block to be block-optimal, as it is right after
    AM minimized it; that makes j the one remaining block, so the check
    accepts two-block traces only.
    """
    _need(trace, "am", "prox_pl")
    if mu_blocks is None or f_star is None:
        raise ValueError("prox_pl needs per-block mu_i and F*")
    if trace.n_blocks != 2:
        raise ValueError("prox_pl needs a two-block trace")
    rows = []
    for rec in trace.records[1:]:
        j = 1 - rec.block
        d = prox_map(h, rec.x, j, mu_blocks[j]).d_value
        rows.append(_row(rec.k, f_star, rec.composite_value - d / (2.0 * mu_blocks[j]), tol))
    return CertificateReport("prox_pl", tuple(rows))


def check_aam_recurrence(trace: SolverTrace, mu: float, tol: float = 1e-7,
                         value_rounding: Callable[[np.ndarray], float] = lambda x: 0.0
                         ) -> CertificateReport:
    """A_k f(x^k) <= psi_k(v^k) with psi_k from its definition,
    psi_k(v) = ||v - x^0||^2 / 2 + sum_{j<=k} a_j (f(y_j) + <g_j, v - y_j> + mu/2 ||v - y_j||^2),
    g_j = grad f(y_j), in time linear in k.

    The sum is kept as running sums about the a-weighted mean ybar of the y_j:
    sum a_j <g_j, v - y_j> = <sum a_j g_j, v - ybar> + sum a_j <g_j, ybar - y_j>
    and sum a_j ||v - y_j||^2 = A ||v - ybar||^2 + sum a_j ||y_j - ybar||^2,
    with the last two sums updated as ybar moves (West, Commun. ACM 22(9),
    1979). Sums about the origin cancel: a_j reaches 1e6 while psi_k stays
    O(1), and they lose up to 5e-7 of psi_k on the acceptance traces.

    value_rounding(x) bounds the rounding error of f(x), 0 by default. A row
    weighs f(x^k) by A_k and f(y_j) by a_j, up to 1e29 at the rounding floor
    of f, so it also allows A_k value_rounding(x^k) + sum_j a_j value_rounding(y_j)."""
    _need(trace, "aam", "aam_recurrence")
    recs = trace.records
    x0 = recs[0].x
    a_sum = af_sum = spread = lin_offset = af_rounding = 0.0
    ybar = np.zeros_like(x0)
    ag_sum = np.zeros_like(x0)
    rows = []
    for r in recs[1:]:
        a, y, g = r.a, r.y, r.grad_y
        ybar_new = ybar + (a / (a_sum + a)) * (y - ybar)
        spread += a * (a_sum / (a_sum + a)) * float((y - ybar) @ (y - ybar))
        lin_offset += float(ag_sum @ (ybar_new - ybar)) + a * float(g @ (ybar_new - y))
        a_sum, af_sum, ag_sum, ybar = a_sum + a, af_sum + a * r.f_y, ag_sum + a * g, ybar_new
        dv = r.v - ybar
        psi = (0.5 * float((r.v - x0) @ (r.v - x0)) + af_sum + float(ag_sum @ dv) + lin_offset
               + 0.5 * mu * (a_sum * float(dv @ dv) + spread))
        af_rounding += a * value_rounding(y)
        rows.append(_row(r.k, psi, r.a_sum * r.composite_value, tol,
                         rounding=af_rounding + r.a_sum * value_rounding(r.x)))
    return CertificateReport("aam_recurrence", tuple(rows))


def estimate_empirical_rate(trace: SolverTrace, f_star: float,
                            min_points: int = 10,
                            floor_ratio: float = 1e-12) -> tuple[float, float]:
    """Least-squares decay estimates from a trace with known optimum.

    Returns (linear_factor, sublinear_slope): the per-iteration geometric
    factor from a log-gap vs k fit, and the slope of log-gap vs log-k.
    Gaps at or below floor_ratio times the initial gap are excluded so the
    numeric noise floor does not pollute the fit.
    """
    gaps = trace.gaps(f_star)
    ks = np.array([r.k for r in trace.records], dtype=float)
    floor = max(gaps[0], 0.0) * floor_ratio
    mask = gaps > floor
    if mask.sum() < min_points:
        raise TooShort(f"need {min_points} usable iterations, have {int(mask.sum())}")
    logg = np.log(gaps[mask])
    slope_lin = np.polyfit(ks[mask], logg, 1)[0]
    pos = mask & (ks >= 1)
    slope_log = np.polyfit(np.log(ks[pos]), np.log(gaps[pos]), 1)[0]
    return float(np.exp(slope_lin)), float(slope_log)


@dataclass(frozen=True)
class Certificate:
    """One certificate kind as ``blockmin verify`` runs it.

    method: the solver whose trace the check reads, "am" or "aam".
    constants: the instance constants the check reads, by attribute name of
        ``blockmin.cli.InstanceInfo``; None there means unknown.
    from_csv: (trace, instance, mu assumed by the run) -> report, on a trace
        rebuilt from trace.csv; None when the check needs the iterate vectors,
        which the CSV does not keep.
    mu_zero_only: the bound holds only for runs with mu_assumed = 0.
    """

    method: str
    constants: tuple[str, ...]
    from_csv: Callable[[SolverTrace, object, float], CertificateReport] | None
    mu_zero_only: bool = False


# The lambdas look each check up on this module when they run, so a check
# rebound here (for instance by a tracer) is the one that runs.
CERTIFICATES = {
    "am_linear_pl": Certificate(
        "am", ("l_blocks", "mu_blocks", "f_star"),
        lambda t, c, mu: check_am_linear(t, c.l_blocks, c.mu_blocks, c.f_star)),
    "am_sublinear": Certificate(
        "am", ("l_blocks", "sublevel_radius", "f_star"),
        lambda t, c, mu: check_am_sublinear(t, c.l_blocks, c.sublevel_radius, c.f_star)),
    "aam_main": Certificate(
        "aam", ("l_global", "radius", "f_star"),
        lambda t, c, mu: check_aam_main(t, c.l_global, mu, c.n_blocks, c.radius, c.f_star)),
    "aam_Ak_growth": Certificate(
        "aam", ("l_global",),
        lambda t, c, mu: check_aam_Ak(t, c.l_global, mu, c.n_blocks)),
    "aam_recurrence": Certificate("aam", (), None),
    "aam_adaptive": Certificate(
        "aam", ("mu_true", "f_star"),
        lambda t, c, mu: check_aam_adaptive(t, c.mu_true, c.f_star), mu_zero_only=True),
    "nearly_pl_combined": Certificate(
        "am", ("l_blocks", "mu_blocks", "f_star"),
        lambda t, c, mu: check_nearly_pl(t, c.l_blocks, c.mu_blocks, c.f_star)),
    "sufficient_decrease": Certificate("am", ("l_blocks",), None),
    "prox_pl": Certificate("am", ("mu_blocks", "f_star"), None),
}
