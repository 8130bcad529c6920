"""Exception types shared across the package."""


class BlockminError(Exception):
    """Base class for all blockmin errors."""


class NotSpd(BlockminError):
    pass


class NoPositiveRoot(BlockminError):
    """Coefficient equation has no positive root; signals convergence."""


class TooShort(BlockminError):
    """Trace has too few usable iterations."""


class ConfigError(BlockminError):
    pass


class SolverError(BlockminError):
    pass


class TraceParseError(BlockminError):
    pass
