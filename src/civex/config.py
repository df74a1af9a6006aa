"""Typed records: config documents, action frames, committed graphs and
certificates.

Each value a record holds is a dataclass field declared with ``setting``:
its name is the key, its default (``REQUIRED`` for none) the default, and it
carries the value's kind and check.  ``check_fields`` (every record class's
``__post_init__``), ``dump`` and ``load`` are the one validator, writer and
reader, so a direct construction, a JSON document and a CLI flag pass the
same checks.  A field that is a config class, not a setting, adds its keys
to its parent's document, which keeps a config document flat; a ``record``
setting holds a nested object.  ``load`` accepts exactly the fields' keys at
every level: an unknown key is refused, and so is a missing one that has no
default.  Every refusal is a ``ValueError`` naming its key, by its path from
the document's root, and showing the value as the document held it.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import MISSING, field, fields
from typing import Any, Callable, NamedTuple

__all__ = ["Kind", "INT", "NUMBER", "FLOAT", "BOOL", "STR", "INTS", "STRS", "STR_SET",
           "STR_PAIR_SET", "STR_LISTS", "REQUIRED", "enum", "record", "setting", "check_fields",
           "dump", "load", "distinct"]

_SETTING = "civex.setting"
REQUIRED = MISSING  # the default of a setting whose key a document must give


class Kind(NamedTuple):
    """How a value is held in Python (``holds``), read from JSON and written to
    it.  ``read`` converts only the right JSON shape; ``holds`` refuses the rest.
    A record kind's object is read by ``load`` of its ``record`` class."""

    holds: Callable[[Any], bool]
    read: Callable[[Any], Any] = lambda v: v
    write: Callable[[Any], Any] = lambda v: v
    record: type | None = None


def _array_of(into: type, item: Callable[[Any], bool], write: Callable[[Any], Any],
              read_item: Callable[[Any], Any] = lambda x: x) -> Kind:
    """Items that ``item`` holds, in an ``into`` in Python and an array in JSON.
    An array converts only when every item holds, so a refusal shows the value
    the document held; a string or object never converts, since it would be
    read by its characters or its keys."""
    def read(v):
        if isinstance(v, list):
            items = [read_item(x) for x in v]
            if all(map(item, items)):
                return into(items)
        return v
    return Kind(lambda v: isinstance(v, into) and all(map(item, v)), read, write)


INT = Kind(lambda v: isinstance(v, int) and not isinstance(v, bool))  # JSON true loads as 1
NUMBER = Kind(lambda v: isinstance(v, (int, float)) and not isinstance(v, bool))
FLOAT = Kind(lambda v: isinstance(v, float))  # replay compares by value: 400.0 == 400
BOOL = Kind(lambda v: isinstance(v, bool))
STR = Kind(lambda v: isinstance(v, str))
INTS = _array_of(tuple, INT.holds, list)
STRS = _array_of(tuple, STR.holds, list)
STR_SET = _array_of(frozenset, STR.holds, sorted)


def _is_pair(v) -> bool:
    return isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], str) and isinstance(v[1], str)


# A set of name pairs, such as a graph's edges: each pair a two-string array.
STR_PAIR_SET = _array_of(frozenset, _is_pair, lambda v: [list(p) for p in sorted(v)],
                         lambda x: tuple(x) if isinstance(x, list) else x)
STR_LISTS = Kind(lambda v: (isinstance(v, dict) and all(map(STR.holds, v))
                            and all(map(STRS.holds, v.values()))),
                 lambda v: {k: STRS.read(p) for k, p in v.items()} if isinstance(v, dict) else v,
                 lambda v: {k: list(p) for k, p in v.items()})


def enum(cls) -> Kind:
    """A member of the string-valued enum ``cls``, written as its value."""
    members = {m.value: m for m in cls}
    return Kind(lambda v: isinstance(v, cls),
                lambda v: members.get(v, v) if isinstance(v, str) else v,
                lambda v: v.value)


def record(cls) -> Kind:
    """A nested object of the record class ``cls``."""
    return Kind(lambda v: isinstance(v, cls), write=dump, record=cls)


def distinct(values) -> bool:  # non-empty and without repeats
    return 0 < len(values) == len(set(values))


def setting(default, kind: Kind, must: str, check: Callable[[Any], bool] | None = None):
    """A record field with its default, kind, requirement and check, if any."""
    metadata = {_SETTING: (kind, check, must)}
    if isinstance(default, dict):  # a mutable default needs a factory
        return field(default_factory=lambda: dict(default), metadata=metadata)
    return field(default=default, metadata=metadata)


@functools.cache
def _table(cls) -> tuple:
    """Each field of ``cls`` with its kind, check and requirement (``None`` for a
    nested config), read once per class."""
    return tuple((f, *f.metadata.get(_SETTING, (None,) * 3)) for f in fields(cls))


@functools.cache
def _keys(cls) -> frozenset[str]:
    """The keys of ``cls``'s document."""
    return frozenset().union(*({f.name} if kind is not None else _keys(f.default_factory)
                               for f, kind, _, _ in _table(cls)))


def check_fields(obj) -> None:
    """Refuse ``obj`` if a setting is of the wrong kind or fails its check."""
    for f, kind, check, must in _table(type(obj)):
        if kind is not None:
            value = getattr(obj, f.name)
            if not kind.holds(value) or check is not None and not check(value):
                raise ValueError(f"{f.name} must be {must}, got {_shown(value)}")


def _shown(value) -> str:
    """``repr(value)``, with a set's items in ``repr`` order, which no string
    hash changes."""
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(map(repr, value))) + "}"
    return repr(value)


def dump(obj) -> dict:
    """``obj`` as a JSON document."""
    document: dict = {}
    for f, kind, _, _ in _table(type(obj)):
        value = getattr(obj, f.name)
        if kind is None:
            document.update(dump(value))
        else:
            document[f.name] = kind.write(value)
    return document


def load(cls, document: Mapping):
    """A ``cls`` from a JSON document, with the defaults of the keys it lacks."""
    if not isinstance(document, Mapping):
        raise ValueError("the document must be a JSON object")
    return _load(cls, document, "")


def _load(cls, document: Mapping, at: str):
    unknown = document.keys() - _keys(cls)
    if unknown:
        raise ValueError(f"unknown key(s): {', '.join(sorted(at + str(k) for k in unknown))}")
    return _build(cls, document, at)


def _build(cls, document: Mapping, at: str):
    kwargs = {}
    for f, kind, _, _ in _table(cls):
        if kind is None:
            kwargs[f.name] = _build(f.default_factory, document, at)
        elif f.name in document:
            value = document[f.name]
            if kind.record is not None and isinstance(value, Mapping):
                kwargs[f.name] = _load(kind.record, value, f"{at}{f.name}.")
            else:
                kwargs[f.name] = kind.read(value)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing key: {at}{f.name}")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a nested record's refusal names the key by its path
        raise ValueError(f"{at}{exc}") from None
