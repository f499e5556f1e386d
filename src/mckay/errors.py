"""Exception hierarchy shared by all modules.

Each class carries the CLI exit code it maps to: 2 invalid input, 3
admissibility or existence failure, 4 internal invariant violation.
"""
from __future__ import annotations

__all__ = [
    "McKayError",
    "GeneratorNotSpecialLinear",
    "ExplosionGuard",
    "DecompositionFailure",
    "SingularMatrix",
    "NotAdmissible",
    "InternalInvariantViolation",
    "CriterionFailed",
    "NotDivisible",
    "Divisible",
    "InternalCriterionFailure",
    "TooLarge",
    "NonIntegralMultiplicity",
    "NotInvariant",
    "MixedDegrees",
    "IsoSearchExhausted",
]


class McKayError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = 4


class GeneratorNotSpecialLinear(McKayError):
    """A generator's determinant is not +1."""

    exit_code = 2


class ExplosionGuard(McKayError):
    """Closure enumeration exceeded the configured element bound."""

    exit_code = 2


class DecompositionFailure(McKayError):
    """The group does not split as diagonal-part semidirect complement as claimed."""

    exit_code = 3


class SingularMatrix(McKayError):
    """An integer matrix that must be nonsingular has determinant 0."""

    exit_code = 2


class NotAdmissible(McKayError):
    """The lattice basis is not stable under the required coordinate symmetries."""

    exit_code = 3

    def __init__(self, message: str, failed: str | None = None):
        super().__init__(message)
        self.failed = failed


class InternalInvariantViolation(McKayError):
    """Two routes that must agree disagreed; signals a bug, not bad input."""


class CriterionFailed(McKayError):
    """The requested degree type violates the divisibility criterion."""

    exit_code = 3


class NotDivisible(McKayError):
    """det(B) is not divisible by 3, so no symmetric cut exists."""

    exit_code = 3


class Divisible(McKayError):
    """det(B) is divisible by 3, so the loop witness does not apply."""

    exit_code = 3


class InternalCriterionFailure(InternalInvariantViolation):
    """A criterion that is provably satisfied under the preconditions failed anyway."""


class TooLarge(McKayError):
    """Input exceeds a configured enumeration guard."""

    exit_code = 2


class NonIntegralMultiplicity(InternalInvariantViolation):
    """A character inner product failed to be a nonnegative integer."""


class NotInvariant(McKayError):
    """The cut is not stable under the symmetry action, so it cannot be transported."""


class MixedDegrees(InternalInvariantViolation):
    """Arrows between one orbit pair carry unequal degrees under an invariant cut."""


class IsoSearchExhausted(McKayError):
    """No labeled digraph isomorphism exists between the two quivers."""
