"""Exception classes shared across the package, and the two domain rules of its
numeric arguments: count() for whole numbers, real() for finite reals."""

import math


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


def count(name: str, value, low: int = 1) -> int:
    """value as an int, if it is a finite whole number >= low (an int, a numpy integer
    or an integral float); otherwise a DomainError naming the argument `name`."""
    if not (low <= value < math.inf and value % 1 == 0):  # NaN fails every comparison
        raise DomainError(f"{name} must be a finite whole number >= {low}, got {value!r}")
    return int(value)


def real(name: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    """value as a float, if it lies in the open interval (low, high), which holds
    only finite reals; otherwise a DomainError naming the argument `name`."""
    if not low < value < high:  # NaN fails every comparison
        raise DomainError(f"{name} must be a finite real in ({low:g}, {high:g}), "
                          f"got {value!r}")
    return float(value)
