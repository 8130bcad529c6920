import math
import sys

import numpy as np
import pytest

from blockmin import (QuadraticSplitProblem, SolverConfig, check_aam_Ak,
                      check_aam_adaptive, check_aam_main, check_aam_recurrence,
                      check_am_linear, check_am_sublinear, check_nearly_pl,
                      estimate_empirical_rate, make_composite, make_quadratic,
                      run_aam, run_am)
from blockmin import solvers
from blockmin.errors import TooShort
from blockmin.solvers import IterationRecord, SolverTrace


def synthetic_trace(gaps, f_star=0.0, method="aam", a_sums=None):
    records = []
    for k, gap in enumerate(gaps):
        records.append(IterationRecord(
            k=k, x=None, composite_value=f_star + gap,
            grad_norm=0.0, a=None if a_sums is None or k == 0 else a_sums[k] - a_sums[k - 1],
            a_sum=None if a_sums is None else a_sums[k], tau=1.0,
            block=0 if method == "am" and k > 0 else None))
    return SolverTrace(method, records, "max_iters", 1)


class TestAmLinear:
    def test_quadratic_all_sweeps(self, quad16):
        trace = run_am(quad16.handle(), quad16.default_start, SolverConfig(max_iters=60))
        rep = check_am_linear(trace, quad16.l_blocks, quad16.mu_blocks, quad16.f_star)
        assert rep.passed and len(rep.rows) == 30
        assert rep.first_failure is None

    def test_uniform_diagonal_one_sweep(self):
        # W = s I: both block factors are zero, one sweep reaches the optimum
        p = QuadraticSplitProblem.from_matrix(1.3 * np.eye(6), np.arange(1.0, 7.0))
        assert p.mu_global == pytest.approx(p.l_global)
        trace = run_am(p.handle(), p.default_start, SolverConfig(max_iters=4))
        gap_after = trace.sweep_records()[1].composite_value - p.f_star
        assert gap_after <= 1e-10
        rep = check_am_linear(trace, p.l_blocks, p.mu_blocks, p.f_star)
        assert rep.passed
        assert rep.rows[0].bound_value == pytest.approx(0.0, abs=1e-12)

    def test_factor_arithmetic(self):
        # mu_i / L_i = 1/2 in both blocks -> contraction factor 1/4
        gaps = [1.0, 0.2]
        trace = synthetic_trace(gaps, method="am")
        rep = check_am_linear(trace, (2.0, 2.0), (1.0, 1.0), 0.0)
        assert rep.rows[0].bound_value == pytest.approx(0.25)

    def test_missing_constants(self, quad16):
        trace = run_am(quad16.handle(), quad16.default_start, SolverConfig(max_iters=4))
        with pytest.raises(ValueError, match="needs per-block L_i, mu_i and F"):
            check_am_linear(trace, None, quad16.mu_blocks, quad16.f_star)

    def test_pure(self, quad16):
        trace = run_am(quad16.handle(), quad16.default_start, SolverConfig(max_iters=20))
        r1 = check_am_linear(trace, quad16.l_blocks, quad16.mu_blocks, quad16.f_star)
        r2 = check_am_linear(trace, quad16.l_blocks, quad16.mu_blocks, quad16.f_star)
        assert r1 == r2


class TestNearlyPl:
    def test_box_constrained(self, box12):
        trace = run_am(box12.handle(), box12.default_start, SolverConfig(max_iters=60))
        rep = check_nearly_pl(trace, box12.l_blocks, box12.mu_blocks, box12.f_star)
        assert rep.passed, rep.worst_slack

    def test_factor_weaker_than_linear(self):
        for mu, lc in ((0.5, 2.0), (1.0, 1.0), (0.1, 10.0)):
            assert (1 - mu / (lc + mu)) > (1 - mu / lc)

    def test_factor_arithmetic(self):
        gaps = [1.0, 0.2]
        trace = synthetic_trace(gaps, method="am")
        rep = check_nearly_pl(trace, (1.0, 1.0), (1.0, 1.0), 0.0)
        # combined factor (1 - 1/2)^2 = 1/4 on the sweep row (last row)
        assert rep.rows[-1].bound_value == pytest.approx(0.25)


class TestAamMain:
    def test_quadratic_all_k(self, quad16):
        p = quad16
        radius = float(np.linalg.norm(p.default_start - p.x_star))
        for mu in (0.0, p.mu_global):
            trace = run_aam(p.handle(), p.default_start,
                            SolverConfig(max_iters=80, mu_assumed=mu))
            rep = check_aam_main(trace, p.l_global, mu, 2, radius, p.f_star)
            assert rep.passed, rep.worst_slack

    def test_k1_formula(self):
        trace = synthetic_trace([1.0, 0.5])
        rep = check_aam_main(trace, 1.0, 0.0, 2, 1.0, 0.0)
        # n L R^2 min{4, 1} with mu = 0 -> min(4/1, 1) = 1 -> bound = 2
        assert rep.rows[0].bound_value == pytest.approx(2.0)

    def test_degenerate_mu_rejected(self):
        trace = synthetic_trace([1.0, 0.5])
        with pytest.raises(ValueError):
            check_aam_main(trace, 1.0, 2.0, 2, 1.0, 0.0)


class TestAamAk:
    def test_paper_values(self):
        # k = 2, L = 1, n = 2, mu = 0 -> A_2 >= 0.5; A_1 >= 1/(nL) = 0.5
        trace = synthetic_trace([1.0, 0.5, 0.2], a_sums=[0.0, 0.5, 1.4])
        rep = check_aam_Ak(trace, 1.0, 0.0, 2)
        assert rep.rows[0].bound_value == pytest.approx(0.5)   # A_1 branch
        assert rep.rows[1].bound_value == pytest.approx(0.5)   # k^2/(4Ln)
        assert rep.passed

    def test_full_trace(self, quad16):
        p = quad16
        cfg = SolverConfig(max_iters=60, mu_assumed=p.mu_global, l_known=p.l_global)
        trace = run_aam(p.handle(), p.default_start, cfg)
        rep = check_aam_Ak(trace, p.l_global, p.mu_global, 2)
        assert rep.passed, rep.worst_slack

    def test_geometric_branch_only_with_mu(self):
        trace = synthetic_trace([1.0, 0.5], a_sums=[0.0, 10.0])
        rep0 = check_aam_Ak(trace, 1.0, 0.0, 2)
        rep1 = check_aam_Ak(trace, 1.0, 0.5, 2)
        assert rep1.rows[0].bound_value >= rep0.rows[0].bound_value

    def test_geometric_branch_beyond_the_float_range(self):
        # L = n = 1, mu = 1/4: the branch is 2^(k-1), which leaves the float
        # range at k = 1,025. Its rows fail there with a finite slack
        a_sums = [0.0] + [2.0 ** min(k - 1, 1023) for k in range(1, 1100)]
        rep = check_aam_Ak(synthetic_trace([1.0] * 1100, a_sums=a_sums), 1.0, 0.25, 1)
        assert len(rep.rows) == 1099 and rep.first_failure == 1025
        assert all(r.passed for r in rep.rows[:1024])
        assert rep.rows[-1].bound_value == sys.float_info.max
        assert math.isfinite(rep.worst_slack) and rep.worst_slack < 0.0


class TestAamAdaptive:
    def test_quadratic(self, quad16):
        p = quad16
        trace = run_aam(p.handle(), p.default_start, SolverConfig(max_iters=80))
        rep = check_aam_adaptive(trace, p.mu_global, p.f_star)
        assert rep.passed, rep.worst_slack

    def test_mu_zero_reduces_to_monotonicity(self, quad16):
        p = quad16
        trace = run_aam(p.handle(), p.default_start, SolverConfig(max_iters=30))
        rep = check_aam_adaptive(trace, 0.0, p.f_star)
        gap0 = trace.records[0].composite_value - p.f_star
        assert all(r.bound_value == pytest.approx(gap0) for r in rep.rows)
        assert rep.passed

    def test_nonlinear_pl_instance(self, nonlinear20):
        trace = run_aam(nonlinear20.handle(), nonlinear20.default_start,
                        SolverConfig(max_iters=60))
        rep = check_aam_adaptive(trace, nonlinear20.pl_constant, 0.0)
        assert rep.passed, rep.worst_slack


def direct_psi(trace, mu):
    """psi_k(v^k) summed from its definition for every k, in O(k^2 dim)."""
    recs = trace.records
    x0 = recs[0].x
    out = []
    for k in range(1, len(recs)):
        v = recs[k].v
        psi = 0.5 * float((v - x0) @ (v - x0))
        for j in range(1, k + 1):
            dev = v - recs[j].y
            psi += recs[j].a * (recs[j].f_y + float(recs[j].grad_y @ dev)
                                + 0.5 * mu * float(dev @ dev))
        out.append(psi)
    return np.array(out)


class TestAamRecurrence:
    def test_running_sums_match_the_direct_form(self):
        # the acceptance runs: two quadratics, mu = 0 and mu > 0, both rules
        for dim in (8, 16):
            p = make_quadratic(seed=dim, dim=dim, cond_number=100.0)
            for mu in (0.0, p.mu_global):
                for l_known in (None, p.l_global):
                    cfg = SolverConfig(max_iters=60, mu_assumed=mu, l_known=l_known)
                    trace = run_aam(p.handle(), p.default_start, cfg)
                    psi = np.array([r.bound_value for r in check_aam_recurrence(trace, mu).rows])
                    direct = direct_psi(trace, mu)
                    assert psi.size == direct.size == 60
                    assert np.all(np.abs(psi - direct) <= 1e-12 * np.abs(direct))

    def test_rounding_floor_is_not_a_violation(self):
        # with mu > 0 and known L, A_k grows from 2.5e29 at k = 950 to 6.5e32
        # at k = 1057 while f(x^k) - f* is rounding noise of ~1.5e-27, so
        # A_k (f(x^k) - f*) exceeds psi_k (first at k = 1057 on this seed)
        # without any fault in AAM; the rounding bound of f covers that. The
        # gradient norm at y floors near 1e-13, so a grad_tolerance below it
        # keeps the run at the floor until A_k has grown that far
        p = make_quadratic(0, 256, 100.0)
        cfg = SolverConfig(max_iters=1300, mu_assumed=p.mu_global, l_known=p.l_global,
                           grad_tolerance=1e-20)
        trace = run_aam(p.handle(), p.default_start, cfg)
        assert check_aam_recurrence(trace, p.mu_global).first_failure > 900
        rep = check_aam_recurrence(trace, p.mu_global, value_rounding=p.value_rounding)
        assert rep.passed, (rep.first_failure, rep.worst_slack)

    @pytest.mark.parametrize("mutant", ["beta_zero", "adaptive_times_1.5"])
    def test_rounding_bound_still_catches_wrong_methods(self, mutant, monkeypatch):
        # AAM with y = x (no momentum) or an adaptive coefficient 1.5 times
        # too large breaks the recurrence long before the rounding floor
        p = make_quadratic(0, 32, 1000.0)
        if mutant == "beta_zero":
            monkeypatch.setattr(solvers, "exact_line_search", lambda h, x, v: (0.0, x))
        else:
            rule = solvers.choose_a_adaptive
            monkeypatch.setattr(solvers, "choose_a_adaptive", lambda *a: 1.5 * rule(*a))
        for mu in (0.0, p.mu_global):
            trace = run_aam(p.handle(), p.default_start,
                            SolverConfig(max_iters=200, mu_assumed=mu))
            rep = check_aam_recurrence(trace, mu, value_rounding=p.value_rounding)
            assert rep.first_failure is not None and rep.first_failure <= 2, mu


class TestAmSublinear:
    def test_rank_deficient(self, rankdef16):
        p = rankdef16
        trace = run_am(p.handle(), p.default_start, SolverConfig(max_iters=200))
        radius = p.sublevel_radius(p.default_start)
        rep = check_am_sublinear(trace, p.l_blocks, radius, p.f_star)
        assert rep.passed, rep.worst_slack
        # O(1/N) regime: gap * N stays bounded by the sublinear constant
        gaps = [r.composite_value - p.f_star for r in trace.sweep_records()]
        bound_const = 16.0 * min(p.l_blocks) * radius ** 2
        assert all(g * (n - 1) <= bound_const for n, g in enumerate(gaps) if n >= 2)

    def test_composite_measures_F(self):
        # on this composite the smooth part alone dips below F* by ~0.5 from
        # the fourth sweep on, so the check has to measure F, not f
        p = make_composite(seed=11, dim=12, gamma=0.4, cond_number=30.0)
        trace = run_am(p.handle(), p.default_start, SolverConfig(max_iters=24))
        gaps = [r.composite_value - p.f_star for r in trace.sweep_records()]
        # F - F* >= (mu/2) ||x - x*||^2 bounds the sublevel set of F(x^0)
        radius = float(np.sqrt(2.0 * gaps[0] / p.mu_global))
        rep = check_am_sublinear(trace, p.l_blocks, radius, p.f_star)
        assert rep.passed, rep.worst_slack
        assert [r.measured_value for r in rep.rows] == gaps[2:]
        assert min(gaps) >= -1e-12

    def test_geometric_branch_formula(self):
        # at N = 3 the bound's first branch is gap0 / 2
        trace = synthetic_trace([8.0, 4.0, 1.0, 0.4, 0.2], method="am")
        rep = check_am_sublinear(trace, (1e-9, 1e-9), 1e-6, 0.0)
        assert rep.rows[1].bound_value == pytest.approx(8.0 / 2.0)

    def test_geometric_branch_underflows_past_2048_sweeps(self):
        # 2^((N - 1) / 2) leaves the float range at N = 2,049; its inverse
        # underflows, and the 1/(N - 1) branch carries the bound
        trace = synthetic_trace([1.0] + [0.0] * 2099, method="am")
        rep = check_am_sublinear(trace, (1.0, 1.0), 1.0, 0.0)
        assert rep.passed and len(rep.rows) == 2098
        assert rep.rows[-1].bound_value == 8.0 / 2098

    def test_too_short(self, rankdef16):
        # one complete sweep: the bound starts at N = 2, so there are no rows,
        # which verify marks vacuous
        trace = run_am(rankdef16.handle(), rankdef16.default_start,
                       SolverConfig(max_iters=2))
        rep = check_am_sublinear(trace, rankdef16.l_blocks, 1.0, rankdef16.f_star)
        assert rep.rows == ()


class TestEmpiricalRate:
    def test_exact_geometric(self):
        gaps = 0.5 ** np.arange(40)
        trace = synthetic_trace(list(gaps))
        factor, _ = estimate_empirical_rate(trace, 0.0)
        assert factor == pytest.approx(0.5, abs=1e-6)

    def test_inverse_square(self):
        ks = np.arange(1, 201)
        trace = synthetic_trace([1.0] + list(1.0 / ks ** 2))
        _, slope = estimate_empirical_rate(trace, 0.0)
        assert slope == pytest.approx(-2.0, abs=0.05)

    def test_aam_factor_under_theory(self, quad16):
        p = quad16
        cfg = SolverConfig(max_iters=200, mu_assumed=p.mu_global)
        trace = run_aam(p.handle(), p.default_start, cfg)
        factor, _ = estimate_empirical_rate(trace, p.f_star)
        assert factor <= 1.0 - np.sqrt(p.mu_global / (2 * p.l_global)) + 0.05

    def test_too_short(self):
        trace = synthetic_trace([1.0, 0.5, 0.1])
        with pytest.raises(TooShort):
            estimate_empirical_rate(trace, 0.0)

