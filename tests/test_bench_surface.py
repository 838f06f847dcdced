"""The ``repro`` surface the benchmark harness calls still exists.

``bench/`` imports ``repro`` names inside its workload functions, passes
keyword arguments to them, calls members on the objects they return and
drives the ``repro`` CLI with flags.  A name deleted or re-signed under
``src`` would only show when a benchmark run fails; this reads
``bench/*.py`` with :mod:`ast` (importing nothing from it) and checks
each of those against the package as it is now.
"""

import argparse
import ast
import importlib
import inspect
from pathlib import Path

import pytest

from repro.cli import build_parser

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: Members ``bench/`` calls on objects it does not import by name — a
#: kernel, a graph, a store, an overlay backend — by their class.
PINNED_MEMBERS = {
    ("repro.rdf.kernel", "AdjacencyKernel"): ("full_rows", "adjacency"),
    ("repro.rdf.graph", "KnowledgeGraph"): ("walk_path", "refresh"),
    ("repro.rdf.store", "TripleStore"): (
        "out_index", "sharded", "subjects_ids", "triples_ids", "add_all", "swap_backend",
    ),
    ("repro.rdf.overlay", "OverlayBackend"): ("delta_statistics",),
}


def _bench_trees():
    paths = sorted(BENCH.glob("*.py"))
    assert paths, BENCH
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


TREES = _bench_trees()


def _nodes(kind):
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, kind):
                yield name, node


def _imported():
    """``local name → the object it names`` for every
    ``from repro… import name`` and ``import repro…`` in ``bench/``."""
    bound = {}
    for _where, node in _nodes((ast.Import, ast.ImportFrom)):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] != "repro":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    value = getattr(module, alias.name)
                except AttributeError:  # a submodule, or a name that is gone
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = value
        else:
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    importlib.import_module(alias.name)
    return bound


def _accepts(function, keyword):
    parameters = inspect.signature(function).parameters
    return keyword in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


def test_every_imported_name_resolves():
    bound = _imported()
    # The scan is not vacuous: the harness builds kernels and snapshots.
    assert {"AdjacencyKernel", "compile_snapshot", "load_snapshot", "QAEngine"} <= set(bound)


def test_keywords_passed_to_imported_names_are_accepted():
    bound = _imported()
    checked = set()
    for where, call in _nodes(ast.Call):
        if not (isinstance(call.func, ast.Name) and call.func.id in bound):
            continue
        target = bound[call.func.id]
        for keyword in call.keywords:
            if keyword.arg is None:
                continue
            assert _accepts(target, keyword.arg), (
                f"{where}:{call.lineno}: {call.func.id}() takes no {keyword.arg}="
            )
            checked.add((call.func.id, keyword.arg))
    assert {("AdjacencyKernel", "patch_from"), ("compile_snapshot", "shards")} <= checked


def test_attributes_of_imported_modules_exist():
    bound = _imported()
    for where, node in _nodes(ast.Attribute):
        value = node.value
        if isinstance(value, ast.Name) and value.id in bound:
            target = bound[value.id]
            if inspect.ismodule(target):
                assert hasattr(target, node.attr), f"{where}:{node.lineno}: {value.id}.{node.attr}"


@pytest.mark.parametrize(
    "owner, member",
    [(owner, member) for owner, members in PINNED_MEMBERS.items() for member in members],
    ids=lambda value: value if isinstance(value, str) else value[1],
)
def test_pinned_members_exist_and_take_the_keywords_bench_passes(owner, member):
    cls = getattr(importlib.import_module(owner[0]), owner[1])
    assert hasattr(cls, member), f"{owner[1]}.{member}"
    calls = [
        (where, call)
        for where, call in _nodes(ast.Call)
        if isinstance(call.func, ast.Attribute) and call.func.attr == member
    ]
    # A pin nothing in bench/ calls any more can go.
    assert calls, f"bench/ no longer calls .{member}()"
    function = getattr(cls, member)
    for where, call in calls:
        for keyword in call.keywords:
            if keyword.arg is not None:
                assert _accepts(function, keyword.arg), (
                    f"{where}:{call.lineno}: {owner[1]}.{member}() takes no {keyword.arg}="
                )


def _options(parser):
    """Every option string of ``parser`` and of its sub-commands."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _options(sub)
    return found


def test_cli_flags_bench_passes_exist():
    """The flags in the ``python -m repro …`` command lines bench builds
    (a list holding ``"repro"``, and what it appends to ``command``)."""
    lists = [node for _where, node in _nodes(ast.List)]
    commands = [
        node for node in lists
        if any(isinstance(e, ast.Constant) and e.value == "repro" for e in node.elts)
    ]
    commands += [
        node.value
        for _where, node in _nodes(ast.AugAssign)
        if isinstance(node.target, ast.Name) and node.target.id == "command"
        and isinstance(node.value, ast.List)
    ]
    flags = {
        element.value
        for node in commands
        for element in node.elts
        if isinstance(element, ast.Constant)
        and isinstance(element.value, str)
        and element.value.startswith("--")
    }
    assert {"--distractors", "--snapshot", "--workers", "--cache-size"} <= flags
    assert flags <= _options(build_parser()), flags - _options(build_parser())
