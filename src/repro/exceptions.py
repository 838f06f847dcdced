"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Subsystems raise the most specific subclass that applies;
none of these wrap-and-reraise silently.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class RDFSyntaxError(ReproError):
    """Raised when parsing serialized RDF (N-Triples) fails.

    Carries the 1-based line number of the offending input line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TermNotFoundError(ReproError):
    """Raised when a term id or lexical form is absent from a dictionary."""


class StoreFrozenError(ReproError):
    """Raised on mutation of a read-only (compacted/snapshot-loaded) store."""


class SnapshotError(ReproError):
    """Raised when a compiled snapshot is missing, corrupt, or incompatible."""


class ColumnOverflowError(ReproError):
    """Raised when a value does not fit a 4-byte integer column (the
    limit is 2^31 - 1): a term id, an offset or a run start."""


class SPARQLSyntaxError(ReproError):
    """Raised when parsing a SPARQL query fails."""


class SPARQLEvaluationError(ReproError):
    """Raised when a structurally valid SPARQL query cannot be evaluated."""


class ParseError(ReproError):
    """Raised when the NLP layer cannot produce a dependency tree."""


class MiningError(ReproError):
    """Raised on invalid inputs to the paraphrase-dictionary miner."""


class ILPError(ReproError):
    """Raised on malformed integer linear programs."""


class InfeasibleError(ILPError):
    """Raised when an ILP instance has no feasible assignment."""


class EvaluationError(ReproError):
    """Raised on malformed benchmark or gold-standard inputs."""


class EngineConfigError(ReproError, ValueError):
    """Raised when an engine is configured with a value it cannot serve
    under (a non-positive pool, a deadline that never comes due)."""


class EngineClosedError(ReproError):
    """Raised when a request reaches a QAEngine after close() was called."""


class LintError(ReproError):
    """Raised on unusable lint inputs (bad paths, syntax, rules)."""
