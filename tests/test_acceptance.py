"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is fixed here, not calibrated: contraction and bound
certificates at 1e-8 scaled slack, decrease-functional monotonicity at 1e-9,
the estimating-sequence recurrence at 1e-7 scaled, gradient checks at 1e-5
relative, and the closed-form oracle match at 1e-10.
"""

import numpy as np

from blockmin import (SolverConfig, check_aam_Ak, check_aam_adaptive,
                      check_aam_main, check_aam_recurrence, check_am_linear,
                      check_am_sublinear, check_nearly_pl, check_prox_pl,
                      d_monotonicity_check, estimate_empirical_rate,
                      make_composite, make_nonlinear_pl, make_quadratic,
                      make_rank_deficient, run_aam, run_am)


def report(criterion, ok, detail=""):
    print(f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_am_linear_rate():
    """Per-sweep contraction on 20 seeded quadratics, dims 8-64, cond 10-1e4."""
    dims = [8, 16, 32, 64]
    worst = np.inf
    for i in range(20):
        cond = 10.0 ** (1.0 + 3.0 * i / 19.0)
        p = make_quadratic(seed=i, dim=dims[i % 4], cond_number=cond)
        trace = run_am(p.handle(), p.default_start, SolverConfig(max_iters=40))
        rep = check_am_linear(trace, p.l_blocks, p.mu_blocks, p.f_star, tol=1e-8)
        worst = min(worst, rep.worst_slack)
        if not rep.passed:
            report(1, False, f"seed {i} first failure at sweep {rep.first_failure}")
    report(1, True, f"20 instances, worst slack {worst:.3e}")


def test_criterion_2_prox_pl_certificate():
    """Proximal-PL slack >= -1e-8 scaled at every AM iterate of 10 composites."""
    worst = np.inf
    for seed in range(10):
        gamma = 0.1 + 0.07 * seed
        p = make_composite(seed=seed, dim=12, gamma=gamma, cond_number=30.0)
        h = p.handle()
        trace = run_am(h, p.default_start, SolverConfig(max_iters=24))
        rep = check_prox_pl(h, trace, p.mu_blocks, p.f_star, tol=1e-8)
        worst = min(worst, rep.worst_slack / (1.0 + abs(p.f_star)))
        if not rep.passed or len(rep.rows) != 24:
            report(2, False, f"seed {seed} {len(rep.rows)} rows, first failure at "
                   f"k={rep.first_failure}, slack {rep.worst_slack:.3e}")
    report(2, True, f"10 instances, worst scaled slack {worst:.3e}")


def test_criterion_3_d_monotonicity():
    """D_i(x, lam2) >= D_i(x, lam1) - 1e-9 over {0.25, 1, 4} at 50 points."""
    pairs = [(0.25, 1.0), (0.25, 4.0), (1.0, 4.0)]
    checked = 0
    for seed in (0, 1, 2):
        p = make_composite(seed=seed, dim=12, gamma=0.3 + 0.2 * seed, cond_number=30.0)
        h = p.handle()
        rng = np.random.default_rng(seed + 100)
        for _ in range(50):
            x = p.x_star + rng.standard_normal(12)
            for i in range(2):  # l1 and zero blocks are both unconstrained
                for lam1, lam2 in pairs:
                    if not d_monotonicity_check(h, x, i, lam1, lam2, tol=1e-9):
                        report(3, False, f"seed {seed} block {i} lam=({lam1},{lam2})")
                    checked += 1
    report(3, True, f"{checked} comparisons")


def test_criterion_4_estimating_sequence():
    """A_k f(x^k) <= psi_k(v^k) + 1e-7 scaled, psi_k from its definition."""
    worst = np.inf
    for dim in (8, 16):
        p = make_quadratic(seed=dim, dim=dim, cond_number=100.0)
        for mu in (0.0, p.mu_global):
            for l_known in (None, p.l_global):
                cfg = SolverConfig(max_iters=60, mu_assumed=mu, l_known=l_known)
                trace = run_aam(p.handle(), p.default_start, cfg)
                rep = check_aam_recurrence(trace, mu, tol=1e-7)
                worst = min(worst, rep.worst_slack)
                if not rep.passed:
                    report(4, False,
                           f"dim {dim} mu {mu:.3g} rule "
                           f"{'known' if l_known else 'adaptive'} k={rep.first_failure}")
    report(4, True, f"8 runs, worst slack {worst:.3e}")


def test_criterion_5_aam_main_bound():
    """f(x^k) - f* <= n L R^2 min{4/k^2, (1-sqrt(mu/nL))^{k-1}}, both rules."""
    worst = np.inf
    for seed, dim, cond in ((1, 16, 100.0), (2, 32, 1000.0)):
        p = make_quadratic(seed=seed, dim=dim, cond_number=cond)
        radius = float(np.linalg.norm(p.default_start - p.x_star))
        for mu in (0.0, p.mu_global):
            for l_known in (None, p.l_global):
                cfg = SolverConfig(max_iters=80, mu_assumed=mu, l_known=l_known)
                trace = run_aam(p.handle(), p.default_start, cfg)
                rep = check_aam_main(trace, p.l_global, mu, 2, radius, p.f_star,
                                     tol=1e-8)
                worst = min(worst, rep.worst_slack / (1.0 + abs(rep.rows[0].bound_value)))
                if not rep.passed:
                    report(5, False, f"seed {seed} mu {mu:.3g} k={rep.first_failure}")
    report(5, True, f"8 runs, worst scaled slack {worst:.3e}")


def test_criterion_6_a_growth():
    """A_k >= k^2/(4Ln), A_1 >= 1/(nL), geometric branch when mu > 0."""
    worst = np.inf
    nl_bound_checked = False
    for seed, dim in ((1, 16), (3, 32)):
        p = make_quadratic(seed=seed, dim=dim, cond_number=100.0)
        for mu in (0.0, p.mu_global):
            for l_known in (None, p.l_global):
                cfg = SolverConfig(max_iters=80, mu_assumed=mu, l_known=l_known)
                trace = run_aam(p.handle(), p.default_start, cfg)
                rep = check_aam_Ak(trace, p.l_global, mu, 2, tol=1e-8)
                worst = min(worst, rep.worst_slack)
                if not rep.passed:
                    report(6, False, f"seed {seed} mu {mu:.3g} k={rep.first_failure}")
                assert trace.records[1].a_sum >= 1.0 / (2 * p.l_global) - 1e-12
                nl_bound_checked = True
    report(6, True, f"A_1 bound checked: {nl_bound_checked}, worst slack {worst:.3e}")


def test_criterion_7_adaptive_strong_convexity():
    """mu-unaware runs still contract by the measured product bound."""
    worst = np.inf
    for seed, dim, cond in ((0, 16, 50.0), (4, 32, 400.0), (7, 8, 20.0)):
        p = make_quadratic(seed=seed, dim=dim, cond_number=cond)
        trace = run_aam(p.handle(), p.default_start,
                        SolverConfig(max_iters=100, mu_assumed=0.0))
        rep = check_aam_adaptive(trace, p.mu_global, p.f_star, tol=1e-8)
        worst = min(worst, rep.worst_slack / (1.0 + abs(rep.rows[0].bound_value)))
        if not rep.passed:
            report(7, False, f"seed {seed} k={rep.first_failure}")
    report(7, True, f"3 instances, worst scaled slack {worst:.3e}")


def test_criterion_8_nearly_pl_constrained():
    """Box-constrained composites contract with the weakened factor."""
    worst = np.inf
    for seed in (13, 17):
        p = make_composite(seed=seed, dim=12, gamma=0.0, kinds=("box", "box"),
                           box_bounds=(-0.3, 0.3), cond_number=40.0)
        trace = run_am(p.handle(), p.default_start, SolverConfig(max_iters=60))
        rep = check_nearly_pl(trace, p.l_blocks, p.mu_blocks, p.f_star, tol=1e-8)
        worst = min(worst, rep.worst_slack)
        if not rep.passed:
            report(8, False, f"seed {seed} first failure k={rep.first_failure}")
    report(8, True, f"2 instances, worst slack {worst:.3e}")


def test_criterion_9_am_sublinear():
    """Rank-deficient quadratic obeys the max{geometric, 8 min(L) R^2/(N-1)} bound."""
    p = make_rank_deficient(seed=5, dim=16, rank=12)
    trace = run_am(p.handle(), p.default_start, SolverConfig(max_iters=200))
    radius = p.sublevel_radius(p.default_start)
    rep = check_am_sublinear(trace, p.l_blocks, radius, p.f_star, tol=1e-8)
    if not rep.passed:
        report(9, False, f"first failure at sweep {rep.first_failure}")
    report(9, True, f"{len(rep.rows)} sweeps, worst slack {rep.worst_slack:.3e}")


def test_criterion_10_figure_ordering():
    """Qualitative figure reproduction: accelerated beats plain AM at k = 200
    (factor-10 slack) and the mu-aware run's fitted factor is within theory."""
    details = []
    for seed, cond in ((0, 1000.0), (1, 1000.0), (2, 10000.0)):
        p = make_quadratic(seed=seed, dim=32, cond_number=cond)
        h = p.handle()
        g_am = (run_am(h, p.default_start, SolverConfig(max_iters=200)).final.composite_value
                - p.f_star)
        t_a0 = run_aam(h, p.default_start, SolverConfig(max_iters=200, mu_assumed=0.0))
        t_amu = run_aam(h, p.default_start,
                        SolverConfig(max_iters=200, mu_assumed=p.mu_global))
        g_a0 = t_a0.final.composite_value - p.f_star
        g_amu = t_amu.final.composite_value - p.f_star
        if not (g_amu <= 10.0 * g_a0 and g_a0 <= 10.0 * g_am):
            report(10, False, f"seed {seed} gaps {g_amu:.2e}, {g_a0:.2e}, {g_am:.2e}")
        factor, _ = estimate_empirical_rate(t_amu, p.f_star)
        theory = 1.0 - np.sqrt(p.mu_global / (2.0 * p.l_global))
        if factor > theory + 0.05:
            report(10, False, f"seed {seed} fitted factor {factor:.3f} > {theory:.3f}+0.05")
        details.append(f"{factor:.3f}<={theory + 0.05:.3f}")
    report(10, True, "ordering ok; fitted factors " + ", ".join(details))


def test_criterion_11_explicit_iteration_oracle():
    """AM block updates equal the closed-form split-matrix formulas to 1e-10."""
    worst = 0.0
    for seed, dim in ((3, 16), (8, 32)):
        p = make_quadratic(seed=seed, dim=dim, cond_number=200.0)
        trace = run_am(p.handle(), p.default_start, SolverConfig(max_iters=60))
        half = dim // 2
        A, B = p.W[:half, :half], p.W[:half, half:]
        C, D = p.W[half:, :half], p.W[half:, half:]
        c, d = p.b[:half], p.b[half:]
        m1, m2 = A.T @ A + C.T @ C, B.T @ B + D.T @ D
        xs, ys = p.default_start[:half].copy(), p.default_start[half:].copy()
        for rec in trace.records[1:]:
            if rec.block == 0:
                xs = np.linalg.solve(m1, A.T @ (c - B @ ys) + C.T @ (d - D @ ys))
            else:
                ys = np.linalg.solve(m2, B.T @ (c - A @ xs) + D.T @ (d - C @ xs))
            err = float(np.abs(rec.x - np.concatenate([xs, ys])).max())
            worst = max(worst, err)
            if err > 1e-10:
                report(11, False, f"seed {seed} k={rec.k} error {err:.3e}")
    report(11, True, f"max deviation {worst:.3e}")


def test_criterion_12_gradient_checks():
    """Analytic gradients match central finite differences to 1e-5 relative."""
    instances = [
        ("quadratic", make_quadratic(seed=3, dim=16, cond_number=200.0)),
        ("rank_deficient", make_rank_deficient(seed=5, dim=16, rank=12)),
        ("composite", make_composite(seed=11, dim=12, gamma=0.4)),
        ("box", make_composite(seed=13, dim=12, gamma=0.0, kinds=("box", "box"),
                               box_bounds=(-0.3, 0.3))),
        ("nonlinear_pl", make_nonlinear_pl(seed=2, n=20, m=10)),
    ]
    worst = 0.0
    for seed, (name, p) in enumerate(instances):
        h = p.handle()
        dim = h.dim
        rng = np.random.default_rng(seed)
        for _ in range(20):
            x = rng.standard_normal(dim)
            g = h.full_gradient(x)
            fd = np.zeros(dim)
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = 1e-6
                fd[j] = (h.smooth_value(x + e) - h.smooth_value(x - e)) / 2e-6
            err = float(np.abs(g - fd).max() / (1.0 + np.abs(g).max()))
            worst = max(worst, err)
            if err > 1e-5:
                report(12, False, f"{name}: relative error {err:.3e}")
    report(12, True, f"5 instances x 20 points, worst relative error {worst:.3e}")
