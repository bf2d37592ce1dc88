"""Exception types shared across the package.

Every domain error derives from TwistoricError so callers (in particular the
command line driver) can catch the whole family at once.  Validation of an
action sequence reports all problems together rather than stopping at the
first one; the individual findings are Violation records carried by
SequenceValidationError.  __all__ names the classes, which the package
re-exports; the violation codes below are lattice's, imported by name.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = [
    "BadIndices",
    "CapExceeded",
    "DegenerateConstants",
    "InconsistentSystem",
    "IndexMismatch",
    "NegativeMultiplicity",
    "NonSmoothFan",
    "NotNormalizable",
    "RootCollision",
    "RootOrderViolation",
    "SequenceValidationError",
    "TwistoricError",
    "Violation",
]


class TwistoricError(Exception):
    """Base class for all domain errors raised by this package."""


# Violation codes used by lattice.check / lattice.validate.
NON_PRIMITIVE_VECTOR = "NonPrimitiveVector"
ENDPOINT_MISMATCH = "EndpointMismatch"
POSITIVITY_VIOLATION = "PositivityViolation"
DETERMINANT_VIOLATION = "DeterminantViolation"
EMPTY_SEQUENCE = "EmptySequence"


class Violation(namedtuple("Violation", "code index message")):
    """One failed validity condition.

    code is one of the module-level constants above; index is the 1-based
    position of the offending vector (for determinant violations, the first
    vector of the offending consecutive pair), or None when the condition is
    not tied to a position.
    """

    __slots__ = ()


class SequenceValidationError(TwistoricError):
    """An action sequence failed validation; carries every violation found."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        lines = "; ".join(v.message for v in self.violations)
        super().__init__(f"invalid action sequence: {lines}")


class NotNormalizable(TwistoricError):
    """No unimodular coordinate change brings the input to normalized form."""


class NonSmoothFan(TwistoricError):
    """Ray data does not define a smooth complete fan (corrupt input)."""


class IndexMismatch(TwistoricError):
    """Divisor coefficient vectors have the wrong length for the surface, or for each other."""


class BadIndices(TwistoricError):
    """Fiber indices out of range or not strictly increasing."""


class InconsistentSystem(TwistoricError):
    """Free (f, fbar) given to solve_from_fibers admit no half-cycle decomposition; a pairing row always does."""


class NegativeMultiplicity(TwistoricError):
    """Half-cycle decomposition produced a non-positive pencil multiplicity."""


class DegenerateConstants(TwistoricError):
    """A scale constant in a model equation is zero."""


class RootCollision(TwistoricError):
    """Two prescribed pencil roots coincide."""


class RootOrderViolation(TwistoricError):
    """Pencil roots are not nonzero, of one sign, and strictly monotone."""


class CapExceeded(TwistoricError):
    """A requested enumeration exceeds its cap, or a model's coefficients the bits Python prints."""
