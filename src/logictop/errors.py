"""Exception types shared across the workbench.

Every error that carries a mathematical witness (a theory, a basic open,
an expression pair) stores it in ``witness`` so callers and the CLI can
print the offending object instead of a bare message.
"""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for all workbench errors."""

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness


# construction / bounds

class EmptyGeneratorSet(WorkbenchError):
    pass


class BoundExceeded(WorkbenchError):
    pass


# connective verification

class MissingJoin(WorkbenchError):
    pass


class PreconditionViolated(WorkbenchError):
    pass


class PrimalityFailure(WorkbenchError):
    """A maximal extension came out non-prime; the input logic is not distributive."""


class NotDistributive(WorkbenchError):
    pass


# topology

class NotClosed(WorkbenchError):
    pass


class BasisNotLattice(WorkbenchError):
    """Some union or intersection of basis elements leaves the basis."""


class NotSpectral(WorkbenchError):
    pass


class NotDistributiveSpace(WorkbenchError):
    pass


# maps

class NotStable(WorkbenchError):
    pass


class NotSpectralMap(WorkbenchError):
    """Some basic open has a non-basic preimage; witness holds the open."""


# builders

class NotHeyting(WorkbenchError):
    pass


# io

class ParseError(WorkbenchError):
    pass


class SchemaError(WorkbenchError):
    """Schema violation; ``path`` is a JSON-pointer into the offending document."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
