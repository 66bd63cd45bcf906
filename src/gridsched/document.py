"""JSON input rules shared by the case, scenario and whitelist readers.

Each reader takes a decoded value and where it sits (``generators[0].p_min``)
and raises :class:`CaseFormatError` naming that place when it is ill-typed.
:func:`element` reads a case element by its dataclass's own fields.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from functools import cache
from pathlib import Path
from typing import Any

Id = str | int


class CaseFormatError(ValueError):
    """Raised when an input document is structurally invalid."""


def load(path: str | Path) -> Any:
    """The JSON document at ``path``; a syntax error names line and column."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseFormatError(
            f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc


def require(doc: dict, key: str, where: str) -> Any:
    if key not in doc:
        raise CaseFormatError(f"{where}: missing required field {key!r}")
    return doc[key]


def known(doc: dict, keys: frozenset[str], where: str) -> None:
    """A key outside ``keys`` is an error, not a field read as its default."""
    if not keys.issuperset(doc):
        raise CaseFormatError(f"{where}.{min(doc.keys() - keys)}: unknown field")


def number(value: Any, where: str) -> float:
    """A JSON number; a string, null or boolean is no number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CaseFormatError(f"{where}: expected a number, got {value!r}")
    return float(value)


def count(value: Any, where: str) -> int:
    """A whole JSON number; a fraction, NaN, infinity or boolean is not."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise CaseFormatError(
            f"{where}: expected a whole number, got {value!r}")
    return int(value)


def flag(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise CaseFormatError(f"{where}: expected true or false, got {value!r}")
    return value


def obj(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise CaseFormatError(f"{where}: expected an object, got {value!r}")
    return value


def ident(value: Any, where: str, noun: str = "a string or an integer") -> Id:
    """An element id: a string or an integer, never a boolean."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise CaseFormatError(f"{where}: expected {noun}, got {value!r}")
    return value


def element(cls: type, value: Any, where: str,
            extra: frozenset[str] = frozenset()) -> Any:
    """Read dataclass ``cls`` from a JSON object by its own fields.

    A field without a default is required.  Each field's type hint picks
    its reader; a nested dataclass is read the same way, ``null`` as
    ``{}``.  A key that is neither a field nor in ``extra`` is an error.
    """
    doc = obj(value, where)
    keys, fields = _spec(cls, extra)
    known(doc, keys, where)
    kwargs = {}
    for name, read, required in fields:
        if name in doc:
            kwargs[name] = read(doc[name], f"{where}.{name}")
        elif required:
            raise CaseFormatError(f"{where}: missing required field {name!r}")
    return cls(**kwargs)


_READERS = {float: number, int: count, bool: flag, Id: ident,
            float | None: lambda value, where: (
                None if value is None else number(value, where))}


@cache
def _spec(cls: type, extra: frozenset[str]) -> tuple[frozenset[str], tuple]:
    """``cls``'s allowed keys and its (name, reader, required) fields."""
    def reader(hint):
        if not dataclasses.is_dataclass(hint):
            return _READERS[hint]
        return lambda value, where: element(
            hint, {} if value is None else value, where)

    hints = typing.get_type_hints(cls)
    fields = tuple((f.name, reader(hints[f.name]),
                    f.default is f.default_factory is dataclasses.MISSING)
                   for f in dataclasses.fields(cls))
    return frozenset(name for name, _, _ in fields) | extra, fields
