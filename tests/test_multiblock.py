"""Four-block coverage: the solvers, the bound checks and the least-squares
problem class are generic in the number of blocks even though the shipped zoo
instances use two."""

import numpy as np
import pytest

from blockmin import (BlockPartition, CompositeQuadraticProblem, ObjectiveHandle,
                      SolverConfig, check_aam_Ak, check_aam_main,
                      check_aam_recurrence, check_am_linear, greedy_block,
                      run_aam, run_am)


def four_block_quadratic(seed=0, dim=16, cond=80.0, merged=False):
    """A four-block least squares. The handle is built by hand from W and b,
    with no value-and-gradient hook; with ``merged`` it is instead the handle
    of a CompositeQuadraticProblem with no terms on the same W, b and blocks."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    v, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    w = u @ (np.geomspace(1.0, np.sqrt(cond), dim)[:, None] * v.T)
    b = rng.standard_normal(dim)
    part = BlockPartition.contiguous([dim // 4] * 4)
    lam = np.linalg.eigvalsh(w.T @ w)
    x_star = np.linalg.solve(w.T @ w, w.T @ b)
    f_star = float(((w @ x_star - b) ** 2).sum())

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
        out = p.x.copy()
        out[idx] = np.linalg.solve(cols.T @ cols, cols.T @ (b - w @ rest))
        return out

    def line_min(p, q):
        d = q.x - p.x
        wd = w @ d
        curv = 2.0 * float(wd @ wd)
        return 0.0 if curv == 0.0 else -float(2.0 * (w.T @ (w @ p.x - b)) @ d) / curv

    handle = ObjectiveHandle(
        partition=part, smooth_value=smooth, block_gradient=block_grad,
        block_argmin=block_argmin, l_global=2.0 * lam[-1],
        mu_global=2.0 * lam[0],
        l_blocks=tuple(2.0 * np.linalg.eigvalsh(
            w[:, idx].T @ w[:, idx])[-1] for idx in part.blocks),
        mu_blocks=(2.0 * lam[0],) * 4,
        optimum=(x_star, f_star), line_minimizer=line_min)
    x0 = x_star + rng.standard_normal(dim)
    if merged:
        handle = CompositeQuadraticProblem(
            W=w, b=b, partition=part, terms=None, x_star=x_star, f_star=f_star,
            l_global=2.0 * lam[-1], mu_global=2.0 * lam[0], default_start=x0).handle()
    return handle, x0, f_star, 2.0 * lam[0], 2.0 * lam[-1]


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
        g = h.full_gradient(y)
        i = greedy_block(h, g)
        gi = g[h.partition.blocks[i]]
        assert float(gi @ gi) >= float(g @ g) / 4 - 1e-12
