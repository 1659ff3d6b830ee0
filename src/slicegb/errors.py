"""Typed failures shared across the library.

The CLI maps these onto exit codes: bad input parses to ``ParseError``
(exit 1, defined in ``parsing``), everything below that signals a failed
mathematical precondition exits 2, and resource exhaustion exits 3.
"""

from __future__ import annotations


class SliceGBError(Exception):
    """Base class for failures of a mathematical precondition."""


class HypothesisViolation(SliceGBError):
    """A leading term moved under slicing, so the transfer theorems do
    not apply.  ``offending`` lists the elements whose leading terms
    involve the cut variable."""

    def __init__(self, message: str, offending=None, dependence=None):
        super().__init__(message)
        self.offending = list(offending) if offending else []
        self.dependence = dependence


class ZeroDivisor(SliceGBError):
    """The linear form divides zero modulo the ideal; ``witness`` is a
    polynomial outside the ideal whose product with the form lies inside."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NonGenericSlices(SliceGBError):
    """Slice bases disagree on their leading-term multisets."""


class LTDrift(SliceGBError):
    """A lifted element's leading term differs from the shared slice
    leading term, so more slices (or another ordering) are needed."""


class MembershipFailed(SliceGBError):
    """The fiber that ``detect`` found misses one of its input points."""


class NonPrincipal(SliceGBError):
    """An elimination ideal expected to be principal is not."""


class DenominatorVanishes(SliceGBError):
    """A parametric coefficient cannot be specialized at the point."""


class DependentParameters(SliceGBError):
    """The parameters satisfy a nontrivial algebraic relation."""


class NotLinearInParams(SliceGBError):
    """A generator has degree above 1 in the parameters."""


class Underdetermined(SliceGBError):
    """The linear parameter system has a positive-dimensional solution set."""


class Inconsistent(SliceGBError):
    """The linear parameter system has no solution."""


class RetryLimitExceeded(SliceGBError):
    """Slice-mode implicitization read as many slices as a degree bound
    allows, or ran out of non-degenerate slices, without a verified
    equation."""


class ResourceLimit(SliceGBError):
    """A computation exceeded its time budget."""
