"""Machine-checked concurrency contracts.

The serving layer's correctness rests on an invariant that is invisible
to the type system: *which lock guards which field*.  This module gives
that contract a declarative, importable form: :func:`guarded_by` declares
that instance fields may only be touched while holding a named lock
attribute.

At runtime the decorator only records metadata on the class (a cheap
class attribute; compatible with ``__slots__``) — it never wraps, proxies,
or slows anything down.  Its real consumer is :mod:`repro.analysis`, which
reads the *source* of the decorator calls (literal string arguments) and
enforces the declared discipline statically: the ``lock-discipline`` rule
flags any ``self.<field>`` access outside a ``with self.<lock>:`` block
for fields declared via :func:`guarded_by`.

(There is no fork contract to declare: nothing that owns a lock, a cache
or a clock anchor is carried across ``os.fork()`` — see
:mod:`repro.serve.prefork`.)

Because the checker is static, decorator arguments must be literal
strings — a computed field name would be enforced at runtime (metadata is
still recorded) but invisible to ``repro lint``.

This module must stay dependency-free: every layer (``rdf``, ``obs``,
``serve``) imports it, so it can import nothing of theirs.
"""

from __future__ import annotations

from typing import Callable, TypeVar

__all__ = ["guarded_by"]

_C = TypeVar("_C", bound=type)

#: Class attribute mapping guarded field name -> lock attribute name.
GUARDED_FIELDS_ATTR = "__guarded_fields__"


def guarded_by(lock: str, *fields: str) -> Callable[[_C], _C]:
    """Declare that ``fields`` may only be touched under ``with self.<lock>:``.

    Stack the decorator to declare several locks on one class::

        @guarded_by("_lock", "_entries")
        class LRUCache: ...

    ``__init__`` (the object is not yet shared) is exempt from the static
    check; everything else that reads or writes a guarded field outside
    its lock is a ``lock-discipline`` finding.
    """
    if not fields:
        raise ValueError("guarded_by needs at least one field name")

    def mark(cls: _C) -> _C:
        merged = dict(getattr(cls, GUARDED_FIELDS_ATTR, {}))
        for name in fields:
            merged[name] = lock
        setattr(cls, GUARDED_FIELDS_ATTR, merged)
        return cls

    return mark

