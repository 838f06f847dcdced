"""Abstract syntax tree for the SPARQL subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from repro.rdf.terms import Term


@dataclass(frozen=True, slots=True)
class Variable:
    """A SPARQL variable (without the leading '?')."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise ValueError(f"invalid variable name: {self.name!r}")

    def __str__(self) -> str:
        return f"?{self.name}"


PatternTerm = Union[Variable, Term]


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A triple pattern: each position is a variable or a bound term."""

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def variables(self) -> set[Variable]:
        return {
            position
            for position in (self.subject, self.predicate, self.object)
            if isinstance(position, Variable)
        }


class Comparator(Enum):
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


@dataclass(frozen=True, slots=True)
class Comparison:
    """A FILTER comparison between a variable and a constant (or variable)."""

    left: PatternTerm
    op: Comparator
    right: PatternTerm


@dataclass(frozen=True, slots=True)
class BooleanExpr:
    """Conjunction/disjunction of filter expressions."""

    op: str  # "&&" or "||"
    left: "FilterExpr"
    right: "FilterExpr"


@dataclass(frozen=True, slots=True)
class NotExpr:
    operand: "FilterExpr"


FilterExpr = Union[Comparison, BooleanExpr, NotExpr]


@dataclass(frozen=True, slots=True)
class OrderCondition:
    variable: Variable
    descending: bool = False


@dataclass(slots=True)
class GroupPattern:
    """A flat group of triple patterns with local filters.

    Used as the arm of a UNION and as the body of an OPTIONAL; nesting
    further groups inside is not part of the supported subset.
    """

    patterns: list[TriplePattern] = field(default_factory=list)
    filters: list["FilterExpr"] = field(default_factory=list)

    def variables(self) -> set[Variable]:
        found: set[Variable] = set()
        for pattern in self.patterns:
            found |= pattern.variables()
        return found


class QueryForm(Enum):
    SELECT = "select"
    ASK = "ask"


@dataclass(slots=True)
class Query:
    """A parsed SPARQL query.

    ``projection`` is None for ``SELECT *`` (project all variables) and for
    ASK queries.  ``count_variable`` is set for ``SELECT COUNT(?v)`` —
    the one aggregate form the paper's failure analysis mentions.
    """

    form: QueryForm
    patterns: list[TriplePattern]
    projection: list[Variable] | None = None
    distinct: bool = False
    filters: list[FilterExpr] = field(default_factory=list)
    order_by: list[OrderCondition] = field(default_factory=list)
    limit: int | None = None
    offset: int = 0
    count_variable: Variable | None = None
    #: UNION blocks: each entry is the list of alternative arms of one
    #: ``{ ... } UNION { ... }`` expression, joined with the base pattern.
    unions: list[list[GroupPattern]] = field(default_factory=list)
    #: OPTIONAL blocks: left-joined with the solutions, in order.
    optionals: list[GroupPattern] = field(default_factory=list)

    def variables(self) -> set[Variable]:
        found: set[Variable] = set()
        for pattern in self.patterns:
            found |= pattern.variables()
        for block in self.unions:
            for arm in block:
                found |= arm.variables()
        for optional in self.optionals:
            found |= optional.variables()
        return found
