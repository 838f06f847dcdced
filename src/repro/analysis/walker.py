"""Source discovery and per-module AST model for the lint rules.

One :class:`ModuleInfo` per file, carrying everything every rule needs so
each file is read and parsed exactly once per run:

* the parsed tree, with parent links (``node.parent``) installed so rules
  can walk *up* — the lock tracker resolves enclosing ``with`` blocks and
  functions this way;
* per-class contract metadata read statically from the
  :mod:`repro.contracts` decorator (``@guarded_by``) and the set of
  attribute/method names each class defines;
* the import table (for the layering rule) and the names imports bind
  (so ``os._exit`` is recognized as a foreign *module* attribute, not a
  cross-class private access);
* suppression pragmas: ``# lint: ignore[rule-a, rule-b]`` (or a bare
  ``# lint: ignore``) on a line suppresses findings anchored to it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.exceptions import LintError

PRAGMA_RE = re.compile(r"#\s*lint:\s*ignore(?:\[(?P<rules>[^\]]*)\])?")

#: The decorator name the walker understands (from repro.contracts).
_GUARDED_DECORATOR = "guarded_by"


@dataclass
class ClassInfo:
    """Statically-extracted facts about one class definition."""

    name: str
    node: ast.ClassDef
    #: guarded field name -> lock attribute name (from @guarded_by).
    guarded: dict[str, str] = field(default_factory=dict)
    #: top-level methods by name (no nested functions).
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(default_factory=dict)
    #: every attribute name the class plausibly defines: methods, class
    #: vars, slots entries, and ``self.X`` assignment targets.
    attribute_names: set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """One parsed source file plus the derived facts rules consume."""

    path: Path
    #: stable identity used in findings, e.g.
    #: ``repro/serve/engine.py`` — independent of where the tree lives.
    relpath: str
    #: dotted module name, e.g. ``repro.serve.engine``.
    module: str
    tree: ast.Module
    source_lines: list[str]
    #: line number -> rule names suppressed there ({"*"} = all rules).
    pragmas: dict[int, set[str]] = field(default_factory=dict)
    classes: list[ClassInfo] = field(default_factory=list)
    #: (imported module, line) pairs, absolute form, for the layering rule.
    imports: list[tuple[str, int]] = field(default_factory=list)
    #: local names bound by import statements (``os``, ``load_snapshot``).
    imported_names: set[str] = field(default_factory=set)
    #: private names (``_x``) defined by this module's classes/functions.
    defined_private_names: set[str] = field(default_factory=set)

    def suppressed(self, rule: str, line: int) -> bool:
        rules = self.pragmas.get(line)
        return rules is not None and ("*" in rules or rule in rules)


def iter_python_files(root: Path) -> Iterator[Path]:
    """Every ``.py`` file under ``root`` (or ``root`` itself), sorted."""
    if root.is_file():
        yield root
        return
    yield from sorted(root.rglob("*.py"))


def _install_parents(tree: ast.Module) -> None:
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child.parent = parent  # type: ignore[attr-defined]


def _parse_pragmas(lines: list[str]) -> dict[int, set[str]]:
    pragmas: dict[int, set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        if "lint:" not in line:
            continue
        match = PRAGMA_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            pragmas[lineno] = {"*"}
        else:
            pragmas[lineno] = {part.strip() for part in rules.split(",") if part.strip()}
    return pragmas


def decorator_name(node: ast.expr) -> str | None:
    """The trailing name of a decorator expression (``a.b`` -> ``b``)."""
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return None


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _string_args(call: ast.Call) -> list[str]:
    return [
        arg.value
        for arg in call.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    ]


def _collect_class(node: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(name=node.name, node=node)
    for dec in node.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        name = decorator_name(dec)
        args = _string_args(dec)
        if name == _GUARDED_DECORATOR and len(args) >= 2:
            lock, *fields = args
            for field_name in fields:
                info.guarded[field_name] = lock
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = stmt
            info.attribute_names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    info.attribute_names.add(target.id)
            # __slots__ entries are attribute declarations too.
            if any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
            ) and isinstance(stmt.value, (ast.Tuple, ast.List)):
                for element in stmt.value.elts:
                    if isinstance(element, ast.Constant) and isinstance(element.value, str):
                        info.attribute_names.add(element.value)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            info.attribute_names.add(stmt.target.id)
    # self.X assignment targets anywhere inside the class body.
    for inner in ast.walk(node):
        if isinstance(inner, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = inner.targets if isinstance(inner, ast.Assign) else [inner.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    info.attribute_names.add(target.attr)
    return info


def load_module(path: Path, relpath: str, module: str) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises LintError on bad syntax)."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise LintError(f"cannot parse {path}: {exc}") from exc
    _install_parents(tree)
    lines = source.splitlines()
    info = ModuleInfo(
        path=path,
        relpath=relpath,
        module=module,
        tree=tree,
        source_lines=lines,
        pragmas=_parse_pragmas(lines),
    )
    package = module.rsplit(".", 1)[0] if "." in module else module
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            info.classes.append(_collect_class(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                info.imports.append((alias.name, node.lineno))
                info.imported_names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None and node.level == 0:
                target = node.module
            else:
                # Relative import: anchor it to this module's package.
                base = package.split(".")
                if node.level > 1:
                    base = base[: len(base) - (node.level - 1)]
                suffix = [node.module] if node.module else []
                target = ".".join(base + suffix)
            info.imports.append((target, node.lineno))
            for alias in node.names:
                info.imported_names.add(alias.asname or alias.name)
    for cls in info.classes:
        info.defined_private_names.update(
            name for name in cls.attribute_names if name.startswith("_")
        )
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_"):
            info.defined_private_names.add(node.name)
    return info
