"""Four-block coverage: the solvers, the bound checks and the least-squares
problem class are generic in the number of blocks even though the shipped zoo
instances use two."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmin import (BlockPartition, CompositeQuadraticProblem, ObjectiveHandle,
                      SolverConfig, check_aam_Ak, check_aam_main,
                      check_aam_recurrence, check_am_linear, greedy_block,
                      run_aam, run_am)
from blockmin import certificates as certs
from blockmin import cli


def four_block_quadratic(seed=0, dim=16, cond=80.0, merged=False):
    """A four-block least squares, built in one call from W, b and the
    partition. The handle is built by hand from W, b and the derived
    constants, with no value-and-gradient hook; with ``merged`` it is instead
    the problem's own handle."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    v, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    w = u @ (np.geomspace(1.0, np.sqrt(cond), dim)[:, None] * v.T)
    b = rng.standard_normal(dim)
    part = BlockPartition.contiguous([dim // 4] * 4)
    prob = CompositeQuadraticProblem(W=w, b=b, partition=part, terms=None)
    x0 = prob.x_star + rng.standard_normal(dim)

    def smooth(x):
        r = w @ x - b
        return float(r @ r)

    def block_grad(x, i):
        return 2.0 * (w[:, part.blocks[i]].T @ (w @ x - b))

    def block_argmin(p, i):
        idx = part.blocks[i]
        cols = w[:, idx]
        rest = p.x.copy()
        rest[idx] = 0.0
        return np.linalg.solve(cols.T @ cols, cols.T @ (b - w @ rest))

    def line_min(p, q):
        d = q.x - p.x
        wd = w @ d
        curv = 2.0 * float(wd @ wd)
        return 0.0 if curv == 0.0 else -float(2.0 * (w.T @ (w @ p.x - b)) @ d) / curv

    if merged:
        handle = prob.handle()
    else:
        handle = ObjectiveHandle(
            partition=part, smooth_value=smooth, block_gradient=block_grad,
            block_argmin=block_argmin, l_global=prob.l_global,
            mu_global=prob.mu_global, l_blocks=prob.l_blocks,
            mu_blocks=prob.mu_blocks, optimum=(prob.x_star, prob.f_star),
            line_minimizer=line_min)
    return handle, x0, prob.f_star, prob.mu_global, prob.l_global


@pytest.fixture(scope="module", params=["hand_built", "merged"])
def four_block(request):
    return four_block_quadratic(merged=request.param == "merged")


def test_am_cyclic_four_blocks(four_block):
    h, x0, f_star, mu, lconst = four_block
    trace = run_am(h, x0, SolverConfig(max_iters=80))
    blocks = [r.block for r in trace.records[1:9]]
    assert blocks == [0, 1, 2, 3, 0, 1, 2, 3]
    assert len(trace.sweep_records()) == 21
    rep = check_am_linear(trace, h.l_blocks, h.mu_blocks, f_star)
    assert rep.passed, rep.worst_slack


def test_two_block_certificates_do_not_apply_at_four_blocks(four_block):
    # the AM factor prod_i (1 - mu / L_i) is no bound beyond two blocks, nor
    # is Beck's sublinear one: verify and the bound_am_linear column leave
    # those runs alone, as they would from constants recorded in summary.json
    h, x0, f_star, mu, lconst = four_block
    cfg = SolverConfig(max_iters=16)
    trace = run_am(h, x0, cfg)
    constants = {"n_blocks": 4, "f_star": f_star,
                 "radius": float(np.linalg.norm(x0 - h.optimum[0])), "l_global": lconst,
                 "l_blocks": list(h.l_blocks), "mu_blocks": list(h.mu_blocks),
                 "mu_true": mu, "sublevel_radius": 1.0}
    four = cli.InstanceInfo({"kind": "quadratic"}, constants)
    two = cli.InstanceInfo({"kind": "quadratic"}, dict(
        constants, n_blocks=2, l_blocks=constants["l_blocks"][:2],
        mu_blocks=constants["mu_blocks"][:2]))
    for kind in ("am_linear_pl", "nearly_pl_combined", "am_sublinear"):
        cert = certs.CERTIFICATES[kind]
        assert cli._unchecked(cert, four, cfg) == ("applies to two-block runs only", False)
        assert cli._unchecked(cert, two, cfg) == (None, False)
    for kind in ("aam_main", "aam_Ak_growth", "aam_adaptive"):
        assert cli._unchecked(certs.CERTIFICATES[kind], four, cfg) == (None, False)
    assert [linear for _, linear in cli._bound_columns("am", trace, four, cfg)] == [None] * 17


def test_aam_four_blocks_bounds(four_block):
    h, x0, f_star, mu, lconst = four_block
    radius = float(np.linalg.norm(x0 - h.optimum[0]))
    for mu_run in (0.0, mu):
        for l_known in (None, lconst):
            cfg = SolverConfig(max_iters=60, mu_assumed=mu_run, l_known=l_known)
            trace = run_aam(h, x0, cfg)
            rep = check_aam_main(trace, lconst, mu_run, 4, radius, f_star)
            assert rep.passed, rep.worst_slack
            rep = check_aam_Ak(trace, lconst, mu_run, 4)
            assert rep.passed, rep.worst_slack
            rep = check_aam_recurrence(trace, mu_run)
            assert rep.passed, rep.worst_slack


def test_greedy_norm_share_four_blocks(four_block):
    h, x0, _, _, _ = four_block
    rng = np.random.default_rng(7)
    for _ in range(20):
        y = x0 + rng.standard_normal(x0.size)
        g = h.evaluate(y).g
        i = greedy_block(h, g)
        gi = g[h.partition.blocks[i]]
        assert float(gi @ gi) >= float(g @ g) / 4 - 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=24)
@given(n=st.sampled_from([2, 4, 8, 16]), size=st.sampled_from([1, 2, 4]),
       cond=st.sampled_from([10.0, 100.0, 1000.0]), seed=st.integers(0, 2**32 - 1))
def test_n_block_least_squares_derives_its_constants(n, size, cond, seed):
    # the am_linear_pl and nearly_pl_combined bounds, with mu_i = global mu,
    # are not asserted here: they fail beyond two blocks (see the README)
    dim = 16 * size
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    v, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    w = u @ (np.geomspace(1.0, np.sqrt(cond), dim)[:, None] * v.T)
    b = rng.standard_normal(dim)
    part = BlockPartition.contiguous([dim // n] * n)
    prob = CompositeQuadraticProblem(W=w, b=b, partition=part, terms=None)

    lam = np.linalg.eigvalsh(w.T @ w)
    assert prob.l_global == pytest.approx(2.0 * lam[-1], rel=1e-12)
    assert prob.mu_global == pytest.approx(2.0 * lam[0], rel=1e-12)
    for li, idx in zip(prob.l_blocks, part.blocks):
        lam_i = np.linalg.eigvalsh(w[:, idx].T @ w[:, idx])[-1]
        assert li == pytest.approx(2.0 * lam_i, rel=1e-12)
    # x_star solves the normal equations to rounding, and f_star is F(x_star)
    r = w @ prob.x_star - b
    scale = lam[-1] * np.linalg.norm(prob.x_star) + np.sqrt(lam[-1]) * np.linalg.norm(b)
    assert np.linalg.norm(w.T @ r) <= 1e-12 * scale
    assert prob.f_star == float(r @ r)

    h = prob.handle()
    x0 = prob.x_star + rng.standard_normal(dim)
    radius = float(np.linalg.norm(x0 - prob.x_star))
    for mu_run in (0.0, prob.mu_global):
        for l_known in (None, prob.l_global):
            cfg = SolverConfig(max_iters=60, mu_assumed=mu_run, l_known=l_known)
            trace = run_aam(h, x0, cfg)
            for rep in (check_aam_main(trace, prob.l_global, mu_run, n, radius, prob.f_star),
                        check_aam_Ak(trace, prob.l_global, mu_run, n),
                        check_aam_recurrence(trace, mu_run)):
                assert rep.passed, (rep.kind, rep.worst_slack)
