"""Structured exceptions shared across the toolkit."""

from __future__ import annotations


class MosipError(Exception):
    """Base class for toolkit errors."""


class ModelError(MosipError):
    """The problem data violates a modeling precondition (bad dimensions,
    infeasible candidate, empty objective subdifferential, ...)."""


class InfeasiblePointError(ModelError):
    """The candidate point violates a constraint or the feasible-set rows;
    split out from ModelError so the CLI can map it to its own exit code."""


class ParseError(MosipError):
    """A problem or certificate file does not conform to the schema."""


class UnsupportedOperationError(MosipError):
    """The requested exact computation is outside what the toolkit supports:
    an irrational subdifferential that has no rational representation, say,
    or a gap function asked of a feasible set with no halfspace rows."""


class InternalInconsistencyError(MosipError):
    """Two independently computed results contradict each other (diagram
    violation, certificate that fails re-verification, oracle refutation next
    to a certificate).  Indicates a bug, never bad user input."""
