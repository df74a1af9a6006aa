"""The config document, one flat JSON object, and its one table.

Each settable value is a config dataclass field declared with ``setting``:
its name is the key, its default the default, and it carries the value's kind
and check.  ``table`` lists these rows in document order.  ``check_fields``
(every config class's ``__post_init__``), ``dump`` and ``load`` are the one
validator, writer and reader, so a direct construction, a JSON document and a
CLI flag pass the same checks.  Every refusal is a ``ValueError`` naming its key.
"""

from __future__ import annotations

from dataclasses import MISSING, field, fields
from typing import Any, Callable, Mapping, NamedTuple

__all__ = ["Kind", "Setting", "INT", "NUMBER", "STR", "INTS", "STRS", "STR_SET", "STR_LISTS",
           "RETIRED_KEYS", "setting", "table", "check_fields", "dump", "load", "distinct"]

_SETTING = "civex.setting"

# Keys that older manifests record, each mapped to whether only false loads.
# ``parallelism`` is ignored; ignoring a removed switch set true would run
# another verifier than the document names.
RETIRED_KEYS = {"parallelism": False, "cert_only": True, "obs_assoc_per_instance": True}


class Kind(NamedTuple):
    """How a value is held in Python (``holds``), read from JSON and written to
    it.  ``read`` converts only the right JSON shape; ``holds`` refuses the rest."""

    holds: Callable[[Any], bool]
    read: Callable[[Any], Any] = lambda v: v
    write: Callable[[Any], Any] = lambda v: v


def _tuple_of(item: Callable[[Any], bool]) -> Kind:
    # Only an array converts: a string would be read by its characters and an
    # object by its keys.
    return Kind(lambda v: isinstance(v, tuple) and all(map(item, v)),
                lambda v: tuple(v) if isinstance(v, list) else v, list)


INT = Kind(lambda v: isinstance(v, int) and not isinstance(v, bool))  # JSON true loads as 1
NUMBER = Kind(lambda v: INT.holds(v) or isinstance(v, float))
STR = Kind(lambda v: isinstance(v, str))
INTS = _tuple_of(INT.holds)
STRS = _tuple_of(STR.holds)
STR_SET = Kind(lambda v: isinstance(v, frozenset) and all(map(STR.holds, v)),
               lambda v: frozenset(v) if isinstance(v, list) and all(map(STR.holds, v)) else v,
               sorted)
STR_LISTS = Kind(lambda v: (isinstance(v, dict) and all(map(STR.holds, v))
                            and all(map(STRS.holds, v.values()))),
                 lambda v: {k: STRS.read(p) for k, p in v.items()} if isinstance(v, dict) else v,
                 lambda v: {k: list(p) for k, p in v.items()})


def distinct(values) -> bool:  # non-empty and without repeats
    return 0 < len(values) == len(set(values))


class Setting(NamedTuple):
    """One row of the config table; ``must`` is the requirement a refusal states."""

    key: str
    kind: Kind
    default: Any
    check: Callable[[Any], bool]
    must: str


def setting(default, kind: Kind, must: str, check: Callable[[Any], bool] = lambda v: True):
    """A config field with its default, kind, requirement and check."""
    metadata = {_SETTING: (kind, check, must)}
    if isinstance(default, dict):  # a mutable default needs a factory
        return field(default_factory=lambda: dict(default), metadata=metadata)
    return field(default=default, metadata=metadata)


def table(cls) -> tuple[Setting, ...]:
    """The rows of ``cls``'s document in document order.  A field that is not
    a setting holds a nested config class, its own default factory."""
    rows: list[Setting] = []
    for f in fields(cls):
        if _SETTING not in f.metadata:
            rows.extend(table(f.default_factory))
            continue
        kind, check, must = f.metadata[_SETTING]
        default = f.default if f.default is not MISSING else f.default_factory()
        rows.append(Setting(f.name, kind, default, check, must))
    return tuple(rows)


def check_fields(config) -> None:
    """Refuse ``config`` if a setting is of the wrong kind or fails its check."""
    for f in fields(config):
        if _SETTING in f.metadata:
            kind, check, must = f.metadata[_SETTING]
            value = getattr(config, f.name)
            if not (kind.holds(value) and check(value)):
                raise ValueError(f"{f.name} must be {must}, got {value!r}")


def dump(config) -> dict:
    """``config`` as a flat JSON document."""
    document: dict = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if _SETTING in f.metadata:
            document[f.name] = f.metadata[_SETTING][0].write(value)
        else:
            document.update(dump(value))
    return document


def load(cls, document: Mapping):
    """A ``cls`` from a flat JSON document.  A missing key takes its default, so
    a misspelled one, which would silently do so, is refused."""
    if not isinstance(document, Mapping):
        raise ValueError("a config must be a JSON object")
    keys = {row.key for row in table(cls)} | set(RETIRED_KEYS)
    unknown = sorted(str(key) for key in document if key not in keys)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    for key, false_only in RETIRED_KEYS.items():
        if false_only and document.get(key, False) is not False:
            raise ValueError(f"'{key}' was removed; only false is accepted")
    return _build(cls, document)


def _build(cls, document: Mapping):
    kwargs = {}
    for f in fields(cls):
        if _SETTING not in f.metadata:
            kwargs[f.name] = _build(f.default_factory, document)
        elif f.name in document:
            kwargs[f.name] = f.metadata[_SETTING][0].read(document[f.name])
    return cls(**kwargs)
