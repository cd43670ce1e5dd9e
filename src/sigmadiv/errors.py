"""Exception classes shared across the package."""


class SigmadivError(Exception):
    """Base class for all package errors."""


class DomainError(SigmadivError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NoFiniteSolutionError(DomainError):
    """A defining equation has no finite root (e.g. all-distinct samples)."""


class ParseError(SigmadivError, ValueError):
    """Malformed input file."""


class SamplerError(SigmadivError, RuntimeError):
    """A rejection loop exceeded its retry budget."""
