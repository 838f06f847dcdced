"""Finding model and rule base class.

A rule is a named check over one :class:`~repro.analysis.walker.ModuleInfo`
at a time; the engine feeds it every module in the scanned tree and
collects :class:`Finding` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.walker import ModuleInfo


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    relpath: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.relpath}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.relpath,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class Rule:
    """Base class: subclasses set ``name``/``summary`` and implement check."""

    #: kebab-case rule id, used in CLI selection and pragmas.
    name: str = ""
    #: one-line description rendered by ``repro lint --list-rules``.
    summary: str = ""

    def check(self, module: "ModuleInfo") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: "ModuleInfo", node, message: str
    ) -> Finding:
        return Finding(
            rule=self.name,
            relpath=module.relpath,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )
