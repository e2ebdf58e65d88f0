"""Shared exception types."""

from __future__ import annotations


class Nega3Error(Exception):
    """Base class for every error raised by this package."""


class LengthMismatchError(Nega3Error, ValueError):
    """Two vectors (or a vector and a matrix) disagree about their length."""


class GuardError(Nega3Error, RuntimeError):
    """A computation was refused because its estimated cost exceeds the
    default budget.  The message carries the estimate; rerun with the
    long-run opt-in to proceed anyway."""

    def __init__(self, message: str, estimate: object = None):
        super().__init__(message)
        self.estimate = estimate


class RegistryError(Nega3Error, RuntimeError):
    """The bundled data files failed an integrity or consistency check."""


class VectorFileError(Nega3Error, ValueError):
    """A vector file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NeighborError(Nega3Error, ValueError):
    """Base class for neighbor-construction precondition failures."""


class NeighborWeightError(NeighborError):
    """The auxiliary vector's weight is not a multiple of three."""


class NeighborMembershipError(NeighborError):
    """The auxiliary vector already lies in the code."""


class NeighborCodeError(NeighborError):
    """The starting code is not self-dual."""


class InternalInconsistencyError(Nega3Error, AssertionError):
    """An internal cross-check failed; indicates a bug, not bad input."""
