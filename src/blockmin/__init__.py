"""Block-structured convex optimization toolkit.

Solvers (alternating minimization, its accelerated variant, a fast gradient
baseline), proximal block machinery, per-iteration convergence certificates,
a small problem zoo, and a benchmark CLI.
"""

from . import errors
from .certificates import (CertificateReport, CertificateRow, check_aam_Ak,
                           check_aam_adaptive, check_aam_main,
                           check_aam_recurrence, check_am_linear,
                           check_am_sublinear, check_nearly_pl,
                           check_sufficient_decrease, estimate_empirical_rate)
from .linalg import SpdFactorization, cholesky, solve_spd, spectral_extremes
from .objective import BlockPartition, ObjectiveHandle
from .problems import (CompositeQuadraticProblem, NonlinearEqPlProblem,
                       QuadraticSplitProblem, make_composite,
                       make_nonlinear_pl, make_quadratic, make_rank_deficient)
from .proxmaps import (BoxTerm, L1Term, ProxMapResult, ProxPlResult, ZeroTerm,
                       box_project, d_monotonicity_check, prox_map,
                       prox_pl_certificate, soft_threshold,
                       stationarity_check)
from .solvers import (IterationRecord, SolverConfig, SolverTrace,
                      choose_a_adaptive, choose_a_known_L, exact_line_search,
                      greedy_block, run_aam, run_am, run_fgm)

__version__ = "0.1.0"

__all__ = [
    "BlockPartition", "ObjectiveHandle",
    "SpdFactorization", "cholesky", "solve_spd", "spectral_extremes",
    "ZeroTerm", "L1Term", "BoxTerm", "ProxMapResult", "ProxPlResult",
    "soft_threshold", "box_project", "prox_map", "stationarity_check",
    "prox_pl_certificate", "d_monotonicity_check",
    "SolverConfig", "SolverTrace", "IterationRecord",
    "run_am", "run_aam", "run_fgm", "exact_line_search", "greedy_block",
    "choose_a_known_L", "choose_a_adaptive",
    "CertificateReport", "CertificateRow",
    "check_am_linear", "check_nearly_pl", "check_aam_main", "check_aam_Ak",
    "check_aam_adaptive", "check_am_sublinear", "check_sufficient_decrease",
    "check_aam_recurrence", "estimate_empirical_rate",
    "QuadraticSplitProblem", "CompositeQuadraticProblem", "NonlinearEqPlProblem",
    "make_quadratic", "make_rank_deficient", "make_composite", "make_nonlinear_pl",
    "errors",
]
