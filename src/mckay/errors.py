"""The error contract: one exception per non-zero CLI exit code.

Invalid input (exit 2) is a plain ValueError.  The two domain errors
carry their own code: PreconditionFailed (exit 3) when the input is well
formed but the mathematics refuses it, InternalInvariantViolation (exit
4) when two routes that must agree disagree.
"""
from __future__ import annotations

__all__ = ["McKayError", "PreconditionFailed", "InternalInvariantViolation"]


class McKayError(Exception):
    """Base class of the domain errors; `exit_code` is the CLI exit code."""

    exit_code = 4


class PreconditionFailed(McKayError):
    """Well-formed input the mathematics refuses: an inadmissible basis, a
    type the cut criterion rules out, the wrong divisibility of det(B), a
    cut that is not invariant, a group that does not split as claimed."""

    exit_code = 3


class InternalInvariantViolation(McKayError):
    """Two routes that must agree disagreed; signals a bug, not bad input."""
