"""The six project rules.  See docs/static-analysis.md for the catalog.

Each rule is deliberately *syntactic*: it checks the shapes this codebase
actually uses (``with self._lock:``, ``self.x = threading.Lock()``,
``store.compacted()``) rather than attempting whole-program type
inference.  Where a deliberate exception exists — the double-checked read
in ``KnowledgeGraph.kernel`` — the code carries an inline
``# lint: ignore[rule]`` pragma, visible and greppable at the line it
excuses; there is no other exception mechanism.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping

from repro.analysis.rulebase import Finding, Rule
from repro.analysis.scopes import (
    enclosing_function,
    is_self_attribute,
    locks_held_at,
)
from repro.analysis.walker import ClassInfo, ModuleInfo, dotted_name

#: Methods where unguarded access to guarded fields is always legal: the
#: object cannot be shared before construction finishes.
_CONSTRUCTION_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


def _name_matches(dotted: str | None, patterns: tuple[str, ...]) -> str | None:
    """The first pattern ``dotted`` matches (exactly or as a ``.``-suffix)."""
    if dotted is None:
        return None
    for pattern in patterns:
        if dotted == pattern or dotted.endswith("." + pattern):
            return pattern
    return None


def _walk_skipping_nested_classes(root: ast.AST) -> Iterator[ast.AST]:
    """Walk a method body without descending into nested class bodies.

    A class defined inside a method has its own ``self``; treating its
    attribute accesses as the outer instance's would be wrong in both
    directions.
    """
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class LockDisciplineRule(Rule):
    """Guarded fields may only be touched under their declared lock."""

    name = "lock-discipline"
    summary = (
        "fields declared via @guarded_by must be accessed inside "
        "`with self.<lock>:` blocks"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for cls in module.classes:
            if not cls.guarded:
                continue
            for method_name, method in cls.methods.items():
                if method_name in _CONSTRUCTION_METHODS:
                    continue
                yield from self._check_method(module, cls, method)

    def _check_method(
        self, module: ModuleInfo, cls: ClassInfo, method: ast.AST
    ) -> Iterator[Finding]:
        for node in _walk_skipping_nested_classes(method):
            if not isinstance(node, ast.Attribute):
                continue
            if not is_self_attribute(node):
                continue
            lock = cls.guarded.get(node.attr)
            if lock is None:
                continue
            if lock in locks_held_at(node):
                continue
            access = "write to" if isinstance(node.ctx, (ast.Store, ast.Del)) else "read of"
            yield self.finding(
                module,
                node,
                f"{access} {cls.name}.{node.attr} outside `with self.{lock}:` "
                f"(declared lock-guarded)",
            )


_MUTATING_STORE_METHODS = ("add", "add_all", "add_all_ids", "remove")
_FROZEN_CONSTRUCTORS = (
    "CompactBackend",
    "CompactBackend.from_triples",
    "ShardedBackend",
    "ShardedBackend.from_triples",
    "TripleStore.build",
)
_FROZEN_PROVENANCE_CALLS = ("compacted", "sharded", "load_snapshot", "load_store")
#: method calls whose *receiver* is thereby known frozen: calling
#: .overlay() requires (and forever after assumes) a frozen base.
_FROZEN_RECEIVER_CALLS = ("overlay",)
#: constructors that capture their first argument as a frozen base —
#: OverlayBackend(base) promises never to mutate base, and neither
#: may anyone else for the overlay's lifetime.
_FROZEN_CAPTURE_CONSTRUCTORS = ("OverlayBackend",)
#: annotation names that mark a parameter as a frozen store/backend.
_FROZEN_ANNOTATIONS = ("CompactBackend", "ShardedBackend")


class FrozenStoreRule(Rule):
    """No mutating calls on stores/backends provenanced as frozen."""

    name = "frozen-store"
    summary = (
        "objects obtained from .compacted()/.sharded(), load_snapshot(), "
        "load_store(), TripleStore.build(), frozen-backend construction, "
        "or captured as an overlay base (.overlay() receivers, "
        "OverlayBackend(base)) must not receive add/remove calls"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        functions = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for func in functions:
            yield from self._check_function(module, func)

    def _is_frozen_expr(self, expr: ast.AST) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        func = expr.func
        if isinstance(func, ast.Attribute) and func.attr in _FROZEN_PROVENANCE_CALLS:
            return True
        dotted = dotted_name(func)
        if dotted is not None and (
            dotted in _FROZEN_PROVENANCE_CALLS
            or _name_matches(dotted, _FROZEN_CONSTRUCTORS) is not None
        ):
            return True
        return False

    def _root_name(self, expr: ast.AST) -> str | None:
        while isinstance(expr, ast.Attribute):
            expr = expr.value
        if isinstance(expr, ast.Name):
            return expr.id
        return None

    def _check_function(self, module: ModuleInfo, func: ast.AST) -> Iterator[Finding]:
        # Pass 1: locals (and self attributes) bound to frozen provenance
        # anywhere in the function — order-insensitive on purpose: a
        # mutation before the rebinding is equally suspicious in the
        # shapes this codebase uses.
        frozen_names: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and self._is_frozen_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        frozen_names.add(target.id)
                    elif is_self_attribute(target):
                        frozen_names.add(f"self.{target.attr}")
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if self._is_frozen_expr(node.value) and isinstance(
                    node.target, ast.Name
                ):
                    frozen_names.add(node.target.id)
            elif isinstance(node, ast.Call):
                # Overlay provenance, two shapes: `base.overlay()` only
                # works over (and perpetually assumes) a frozen base, and
                # `OverlayBackend(base)` captures its first argument with
                # the promise that nobody mutates it afterwards.
                callee = node.func
                if (
                    isinstance(callee, ast.Attribute)
                    and callee.attr in _FROZEN_RECEIVER_CALLS
                ):
                    receiver = callee.value
                    if isinstance(receiver, ast.Name):
                        frozen_names.add(receiver.id)
                    elif is_self_attribute(receiver):
                        frozen_names.add(f"self.{receiver.attr}")
                dotted = dotted_name(callee)
                if (
                    dotted is not None
                    and _name_matches(dotted, _FROZEN_CAPTURE_CONSTRUCTORS)
                    is not None
                    and node.args
                ):
                    captured = node.args[0]
                    if isinstance(captured, ast.Name):
                        frozen_names.add(captured.id)
                    elif is_self_attribute(captured):
                        frozen_names.add(f"self.{captured.attr}")
        # Parameters annotated with a frozen backend type are frozen too.
        args_node = getattr(func, "args", None)
        if args_node is not None:
            for arg in (
                list(args_node.posonlyargs) + list(args_node.args) + list(args_node.kwonlyargs)
            ):
                annotation = arg.annotation
                if annotation is not None:
                    rendered = dotted_name(annotation) or (
                        annotation.value if isinstance(annotation, ast.Constant) else None
                    )
                    if isinstance(rendered, str) and any(
                        name in rendered for name in _FROZEN_ANNOTATIONS
                    ):
                        frozen_names.add(arg.arg)
        # Pass 2: mutating method calls on frozen receivers.
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if not isinstance(callee, ast.Attribute):
                continue
            if callee.attr not in _MUTATING_STORE_METHODS:
                continue
            receiver = callee.value
            if self._is_frozen_expr(receiver):
                yield self.finding(
                    module,
                    node,
                    f".{callee.attr}() called directly on a frozen "
                    f"store/backend expression",
                )
                continue
            root = self._root_name(receiver)
            qualified = (
                f"self.{receiver.attr}"
                if is_self_attribute(receiver)
                else root
            )
            if root in frozen_names or qualified in frozen_names:
                yield self.finding(
                    module,
                    node,
                    f".{callee.attr}() called on '{qualified or root}', which is "
                    f"snapshot-loaded/compacted and therefore frozen",
                )


#: module prefixes where wall-clock time.time() is legitimate
#: (harness timing reports wall time by design).
_MONOTONIC_EXEMPT_MODULES = ("repro.experiments",)


class MonotonicTimeRule(Rule):
    """TTL/deadline arithmetic must use the monotonic clock."""

    name = "monotonic-time"
    summary = (
        "time.time() is wall-clock (steps on NTP/suspend); deadlines, "
        "TTLs, and durations must use time.monotonic()"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.module.startswith(_MONOTONIC_EXEMPT_MODULES):
            return
        bare_time_imported = any(
            isinstance(node, ast.ImportFrom)
            and node.module == "time"
            and any(alias.name == "time" and alias.asname is None for alias in node.names)
            for node in ast.walk(module.tree)
        )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted == "time.time" or (dotted == "time" and bare_time_imported):
                yield self.finding(
                    module,
                    node,
                    "time.time() used; use time.monotonic() for intervals/"
                    "deadlines (or add the module to the rule's exempt list "
                    "if this is genuine wall-clock timestamping)",
                )


#: Packages below the serving layer must not reach up into it (or into
#: the CLI / the experiment harness / this analysis package).  Keys are
#: longest-prefix matched, so a deeper entry can carve out an exception.
_LAYERING: Mapping[str, tuple[str, ...]] = {
    prefix: ("repro.serve", "repro.cli", "repro.experiments", "repro.analysis")
    for prefix in (
        "repro.rdf",
        "repro.nlp",
        "repro.obs",
        "repro.match",
        "repro.core",
        "repro.linking",
        "repro.paraphrase",
        "repro.sparql",
        "repro.eval",
        "repro.datasets",
        "repro.baselines",
    )
} | {
    "repro.serve": ("repro.cli", "repro.experiments", "repro.analysis"),
    "repro.analysis": ("repro.serve", "repro.cli", "repro.experiments"),
}


class LayeringRule(Rule):
    """Lower layers must not import upper ones; no foreign _private access."""

    name = "layering"
    summary = (
        "rdf/nlp/match/core/... must not import serve/cli/experiments; "
        "cross-module access to _private attributes is forbidden"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        yield from self._check_imports(module)
        yield from self._check_private_access(module)

    def _layer_of(self, module: ModuleInfo) -> str | None:
        best: str | None = None
        for prefix in _LAYERING:
            if module.module == prefix or module.module.startswith(prefix + "."):
                if best is None or len(prefix) > len(best):
                    best = prefix
        return best

    def _check_imports(self, module: ModuleInfo) -> Iterator[Finding]:
        layer = self._layer_of(module)
        if layer is None:
            return
        forbidden = _LAYERING[layer]
        for imported, lineno in module.imports:
            for prefix in forbidden:
                if imported == prefix or imported.startswith(prefix + "."):
                    anchor = ast.AST()
                    anchor.lineno = lineno  # type: ignore[attr-defined]
                    anchor.col_offset = 0  # type: ignore[attr-defined]
                    yield self.finding(
                        module,
                        anchor,
                        f"{layer} must not import {imported} "
                        f"(layer boundary: {layer} < {prefix})",
                    )

    def _check_private_access(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if not attr.startswith("_") or attr.startswith("__"):
                continue
            receiver = node.value
            if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
                continue
            # Module-private: the attribute is defined by something in
            # this very file (classmethod constructors, helper tokens).
            if attr in module.defined_private_names:
                continue
            # Attributes of imported *modules* (os._exit) are a stdlib
            # affair, not a cross-layer reach into project internals.
            if isinstance(receiver, ast.Name) and receiver.id in module.imported_names:
                continue
            yield self.finding(
                module,
                node,
                f"access to foreign private attribute '.{attr}' "
                f"(not defined in {module.relpath}); use or add a public "
                f"accessor instead",
            )


_BANNED_RAISES = ("Exception", "BaseException", "RuntimeError")


class ExceptionDisciplineRule(Rule):
    """Library code raises ReproError subclasses, not bare Exception."""

    name = "exception-discipline"
    summary = (
        "raise sites must use ReproError subclasses (or builtin value "
        "errors), never Exception/BaseException/RuntimeError"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            target = exc.func if isinstance(exc, ast.Call) else exc
            dotted = dotted_name(target)
            if _name_matches(dotted, _BANNED_RAISES) is None:
                continue
            yield self.finding(
                module,
                node,
                f"raise {dotted}: public errors must be ReproError "
                f"subclasses (see repro.exceptions) so callers can catch "
                f"one base class",
            )


#: Callables that keep what they wrap: ``cache(f)`` / ``lru_cache(f)``,
#: ``partial(f, ...)``.
_WRAPPERS = ("cache", "lru_cache", "partial")
#: Cache factories called for a decorator first: ``lru_cache(maxsize=n)(f)``.
_CACHE_FACTORIES = ("lru_cache",)


class InstanceCycleRule(Rule):
    """No instance attribute that holds a wrapper of the instance's own
    bound method: the instance then refers to itself, and once dropped it
    waits for the cycle collector instead of being freed on the spot."""

    name = "instance-cycle"
    summary = (
        "self.<attr> must not be assigned a cache or partial wrapping a "
        "bound method of self (lru_cache(...)(self.m), functools.cache("
        "self.m), partial(self.m, ...)): a reference cycle per instance"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if not any(is_self_attribute(target) for target in targets):
                continue
            method = self._wrapped_method(node.value)
            if method is not None:
                yield self.finding(
                    module,
                    node,
                    f"self attribute assigned a wrapper of self.{method}: the "
                    f"instance refers to itself and is freed only by the "
                    f"cycle collector; wrap a function of what the method "
                    f"reads instead",
                )

    def _wrapped_method(self, expr: ast.AST) -> str | None:
        """The ``self`` method name inside a chain of one or more wrapper
        calls (a plain ``self.x = self.y`` is not this rule's business)."""
        wrapped = False
        while isinstance(expr, ast.Call) and expr.args:
            callee = expr.func
            if isinstance(callee, ast.Call):  # lru_cache(maxsize=n)(f)
                if _name_matches(dotted_name(callee.func), _CACHE_FACTORIES) is None:
                    return None
            elif _name_matches(dotted_name(callee), _WRAPPERS) is None:
                return None
            wrapped, expr = True, expr.args[0]
        return expr.attr if wrapped and is_self_attribute(expr) else None


ALL_RULES: tuple[Rule, ...] = (
    LockDisciplineRule(),
    FrozenStoreRule(),
    MonotonicTimeRule(),
    LayeringRule(),
    ExceptionDisciplineRule(),
    InstanceCycleRule(),
)

RULES_BY_NAME: dict[str, Rule] = {rule.name: rule for rule in ALL_RULES}
