"""The docs say what the code does: ``docs/serving.md``'s ``repro serve``
flag table against the parser and ``EngineConfig``."""

import argparse
import ast
import dataclasses
import pathlib
import re

from repro.cli import _engine_config, build_parser
from repro.serve import EngineConfig

SERVING_MD = pathlib.Path(__file__).resolve().parents[1] / "docs" / "serving.md"


def serve_parser() -> argparse.ArgumentParser:
    """The ``repro serve`` sub-command's parser."""
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return commands.choices["serve"]


def _valued_actions() -> list[argparse.Action]:
    """``repro serve``'s flags that take a value (not ``--help``)."""
    return [action for action in serve_parser()._actions if action.nargs != 0]


def _flag_table() -> dict[str, str]:
    """``flag → default`` cell of every row of § Configuration's table."""
    section = SERVING_MD.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(--[a-z-]+)` \| ([^|]+?) \|", section, re.M)
    assert rows, "no flag table under ## Configuration"
    return dict(rows)


def _engine_field(flag: str) -> str | None:
    """The ``EngineConfig`` field ``repro serve FLAG`` sets, or ``None``."""
    args = build_parser().parse_args(["serve", flag, "7"])
    changed = [
        field.name for field in dataclasses.fields(EngineConfig)
        if getattr(_engine_config(args), field.name) != getattr(EngineConfig(), field.name)
    ]
    assert len(changed) <= 1, (flag, changed)
    return changed[0] if changed else None


def _serve_defaults() -> dict[str, object]:
    """Every ``repro serve`` flag and the default it takes: the parser's
    own, or — for a flag declared without one — the ``EngineConfig``
    field default it falls back to."""
    defaults = {}
    for action in _valued_actions():
        for flag in action.option_strings:
            if action.default is not argparse.SUPPRESS:
                defaults[flag] = action.default
            elif (field := _engine_field(flag)) is not None:
                defaults[flag] = getattr(EngineConfig(), field)
    return defaults


def test_every_row_names_a_serve_flag_with_its_default():
    defaults = _serve_defaults()
    for flag, cell in _flag_table().items():
        assert flag in defaults, f"docs/serving.md lists {flag}, repro serve has none"
        assert ast.literal_eval(cell.strip()) == defaults[flag], (flag, cell)


def test_every_engine_config_flag_has_a_row():
    rows = _flag_table()
    engine_flags = [
        flag
        for action in _valued_actions()
        if action.default is argparse.SUPPRESS
        for flag in action.option_strings
        if _engine_field(flag) is not None
    ]
    assert engine_flags
    for flag in engine_flags:
        assert flag in rows, f"repro serve {flag} has no row in docs/serving.md"
