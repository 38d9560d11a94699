"""Exception hierarchy shared by all modules."""


class CopseudoError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CopseudoError):
    """Invalid configuration, flags, or operation preconditions."""


class DataError(CopseudoError):
    """Missing, malformed, or inconsistent data files."""


class TaintError(CopseudoError):
    """A hidden ground-truth label was requested outside the evaluation path."""


class DivergenceError(CopseudoError):
    """Training produced a non-finite loss or prediction."""
