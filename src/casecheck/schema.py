"""One checker for every JSON input: corpus records, policy files, replay
traces, ``reports.jsonl`` and ``timings.json``. Each input's record is a plain
class declared once, which ``build`` both checks and builds ("parse, don't
validate": A. King, 2019). Its annotated fields, each a JSON type (``float``
is any number), ``Count``, a record class, a ``list`` of one, a ``dict`` of a
JSON type, or a union, are the first parameters of its ``__init__``; one may
be left out if it has a default. ``UNKNOWN_KEYS`` says whether a key that
is no field is "refused" (the default; all fields are then required),
"ignored" or "kept" (passed after the fields), and ``__init__`` holds the
value rules, raising ``must``. A problem reads "<path> must be ..., got
<value>", "<path>: missing required field" or "<path>: unknown field", the
path leading to the value, as ``queries[1].gold``.
"""

from __future__ import annotations

import functools
import json
import types
import typing
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path


class Count(int):
    """As an annotation, an integer >= 0."""


class Unfit(ValueError):
    """``problem`` follows ``path`` ("" for the record, None for an unreadable file);
    ``index`` is the record's place among ``build``'s values, ``line`` its line or 0."""

    def __init__(self, path: str | None, problem: str, line: int = 1):
        super().__init__(f"{path or ''}{problem}")
        self.path, self.problem, self.index, self.line = path, problem, 0, line

    def __reduce__(self):
        # pickled whole, as a forked shard sends it (``casefile.forked_map``)
        return type(self), (self.path, self.problem, self.line), vars(self)

    def under(self, head: str) -> Unfit:
        """The same problem, its path below ``head``."""
        path = self.path or ""
        return Unfit(head + ("." if path[:1] not in ("", "[") else "") + path, self.problem)

    def at(self, file, noun: str) -> str:
        """The problem in ``file``; ``noun`` names the record itself."""
        loc = f"{file}:{self.line}" if self.line else str(file)
        return loc + (self.problem if self.path is None else f": {self.path or noun}{self.problem}")


def dump(record) -> dict:
    """The JSON object ``record`` holds: its fields, then the keys it kept."""
    fields, _, unknown_keys = _declaration(type(record))
    kept = record.extra if unknown_keys == "kept" else {}
    return {**{name: getattr(record, name) for name, *_ in fields}, **kept}


def must(path: str, wanted: str, value) -> Unfit:
    return Unfit(path, f" must be {wanted}, got {value!r}")


def member(enum, path: str, value):
    """The member of the string enum ``enum`` whose value is ``value``."""
    try:
        return enum(value)
    except ValueError:
        raise must(path, "one of " + ", ".join(m.value for m in enum), value) from None


# Lines built together, a chunk at a time while their JSON is fresh.
_CHUNK = 64


def _parse(text: str, line: int = 0):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise Unfit(None, f": not JSON ({exc})", line or getattr(exc, "lineno", 1)) from None
    except RecursionError:
        raise Unfit(None, ": nested too deeply to read", line or 1) from None


def _lines(path: str | Path) -> list[str]:
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise Unfit(None, f": not UTF-8 text ({exc.reason})", line=0) from None


def read_json(path: str | Path):
    """The JSON value of the file at ``path``."""
    return _parse("".join(_lines(path)))


def read_lines(cls, path: str | Path) -> tuple[list[int], list]:
    """The line numbers of the non-blank lines of the JSON-lines ``path``, and a
    ``cls`` built from each."""
    numbered = [(lineno, line) for lineno, line in enumerate(_lines(path), start=1) if line.strip()]
    records = []
    for start in range(0, len(numbered), _CHUNK):
        chunk = numbered[start:start + _CHUNK]
        try:
            records += build(cls, [_parse(line, lineno) for lineno, line in chunk])
        except Unfit as exc:
            if exc.path is not None:  # JSON, but the first line that is no record
                exc.line = chunk[exc.index][0]
            raise
    return [lineno for lineno, _ in numbered], records


# Each annotation's JSON type in words, alone and as entries.
_WORDS = {str: ("a string", "strings"), int: ("an integer", "integers"),
          Count: ("an integer >= 0", "integers >= 0"), float: ("a number", "numbers"),
          bool: ("true or false", "booleans"), dict: ("an object", "objects"),
          list: ("a list", "lists"), type(None): ("null", "nulls")}


@functools.cache
def _plan(hint) -> tuple:
    """(Python types that fit, wording, plural, record class, plan of the
    entries, whether values are counts) of the annotation ``hint``."""
    options = typing.get_args(hint) if type(hint) is types.UnionType else (hint,)
    kinds, words, record, entry = set(), [], None, None
    for option in options:
        origin = typing.get_origin(option) or option
        if typing.get_args(option):  # list[...] or dict[str, ...]
            entry = _plan(typing.get_args(option)[-1])
            words.append(tuple(w + " of " + entry[2] for w in _WORDS[origin]))
        elif origin in _WORDS:
            words.append(_WORDS[origin])
        else:
            record, origin = origin, dict
            words.append(_WORDS[dict])
        kinds |= {float: {int, float}, Count: {int}}.get(origin, {origin})
    return (frozenset(kinds), " or ".join(w[0] for w in words), " or ".join(w[1] for w in words),
            record, entry, Count in options)


@functools.cache
def _declaration(cls) -> tuple:
    """([(name, plan, required, default)], field names, unknown-key rule)."""
    hints = typing.get_type_hints(cls)
    defaults = cls.__init__.__defaults__ or ()
    required = cls.__init__.__code__.co_argcount - 1 - len(defaults)  # fields without a default
    defaults = (None,) * required + defaults
    fields = [(name, _plan(hints[name]), i < required, defaults[i]) for i, name in enumerate(hints)]
    return fields, frozenset(hints), getattr(cls, "UNKNOWN_KEYS", "refused")


def build(hint, values: list) -> list:
    """``values`` checked against ``hint``, an annotation or its plan, records built;
    when all at once fail, the first value that does not fit raises Unfit, with its index."""
    try:
        return _column(hint, values)
    except Unfit:
        if len(values) == 1:
            raise
        for index, value in enumerate(values):
            try:
                _column(hint, [value])
            except Unfit as exc:
                exc.index = index
                raise exc from None
        raise


def _column(hint, values: list) -> list:
    """``values`` checked a check at a time over all of them, records built. A
    list of plain values is named whole, a list of lists or records by entry."""
    if not values:  # and none nested in them, however a record nests in itself
        return values
    kinds, wording, _, record, entry, counts = hint if type(hint) is tuple else _plan(hint)
    if not set(map(type, values)) <= kinds or counts and min(values) < 0:
        raise must("", wording, values[0])  # the value, once ``build`` has found it
    if record:
        if len(kinds) == 1:  # objects alone
            return _records(record, values)
        built = iter(_records(record, [v for v in values if type(v) is dict]))
        return [next(built) if type(v) is dict else v for v in values]
    if entry:
        given = values if len(kinds) == 1 else [v for v in values if type(v) in (list, dict)]
        entries = list(chain.from_iterable(map(dict.values, given) if dict in kinds else given))
        nested = entry[3] or entry[4]  # records or lists
        try:
            built = iter(build(entry, entries))
        except Unfit as exc:
            raise (exc.under(f"[{exc.index}]") if nested else must("", wording, given[0])) from None
        if nested:
            return [list(islice(built, len(v))) if type(v) is list else v for v in values]
    return values


def _records(cls, items: list[dict]) -> list:
    fields, names, unknown_keys = _declaration(cls)
    if unknown_keys == "refused" and max(map(len, items)) > len(names):  # all fields required
        raise Unfit(min(items[0].keys() - names, default=""), ": unknown field")
    columns = []
    for name, plan, required, default in fields:
        try:
            column = (list(map(itemgetter(name), items)) if required
                      else [item[name] for item in items if name in item])
        except KeyError:
            raise Unfit(name, ": missing required field") from None
        try:
            column = _column(plan, column)
        except Unfit as exc:
            raise exc.under(name) from None
        if len(column) < len(items):  # the default where the field is left out
            given = iter(column)
            column = [next(given) if name in item else default for item in items]
        columns.append(column)
    if unknown_keys == "kept":
        columns.append([{} if names.issuperset(item) else
                        {key: value for key, value in item.items() if key not in names}
                        for item in items])
    return list(map(cls, *columns))
