"""Exception types shared across the package."""


class BlockminError(Exception):
    """Base class for all blockmin errors."""


class DimensionMismatch(BlockminError):
    pass


class NotSpd(BlockminError):
    pass


class NoBlockSolver(BlockminError):
    """A block minimizer was requested but the objective does not provide one."""


class NoProx(BlockminError):
    """Block has a non-zero composite term but no prox operator."""


class ConstrainedBlock(BlockminError):
    """Operation requires an unconstrained block (feasible set = R^{n_i})."""


class NoPositiveRoot(BlockminError):
    """Coefficient equation has no positive root; signals convergence."""


class MissingL(BlockminError):
    pass


class NonSmoothUnsupported(BlockminError):
    """Solver supports smooth unconstrained objectives only."""


class MissingConstants(BlockminError):
    pass


class TooShort(BlockminError):
    """Trace has too few usable iterations."""


class ConfigError(BlockminError):
    pass


class SolverError(BlockminError):
    pass


class TraceParseError(BlockminError):
    pass
