"""Shared identifier, IRI, label, provenance, and diagnostic types.

Every other module builds on the value types defined here.  All of them are
immutable, so they can be shared freely between concurrent tasks.
"""

from __future__ import annotations

import gc
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from itertools import chain, compress, count, repeat
from operator import is_not, itemgetter, not_
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

__all__ = [
    "ERROR",
    "WARNING",
    "Checked",
    "Fields",
    "Finding",
    "FormatError",
    "Identifier",
    "Iri",
    "Label",
    "Provenance",
    "RULES",
    "TermTable",
    "check",
    "check_identifier",
    "collector_paused",
    "finding",
    "format_timestamp",
    "has_errors",
    "holds_stopword",
    "mint_iri",
    "misfits",
    "parent_cycles",
    "parse_json",
    "parse_timestamp",
    "shared_label_findings",
    "sort_findings",
    "stopword_findings",
    "timestamp_identifier",
    "validate_identifier",
]

_IDENTIFIER_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-"
)
_IDENTIFIER = r"[A-Za-z0-9._-]+"
_IDENTIFIER_RE = re.compile(_IDENTIFIER + r"\Z")
_IRI = r"[A-Za-z][A-Za-z0-9+.-]*://[^/\s]+/\S+"  # scheme://authority/path
_IRI_RE = re.compile(_IRI + r"\Z")
_LANGUAGE_RE = re.compile(r"[A-Za-z]{2,8}(?:-[A-Za-z0-9]{1,8})*\Z")
_WORD_RE = re.compile(r"[A-Za-z0-9]+")


class FormatError(ValueError):
    """An input document does not conform to its file format."""


@dataclass(frozen=True)
class Identifier:
    """Machine identifier restricted to ``[A-Za-z0-9._-]+``."""

    value: str

    def __post_init__(self) -> None:
        check_identifier(self.value)

    def __str__(self) -> str:
        return self.value


def check_identifier(text: str) -> str:
    """Return *text* if it is an identifier; else report its first bad position."""
    if isinstance(text, str) and _IDENTIFIER_RE.match(text):
        return text
    if not isinstance(text, str):
        raise ValueError(f"identifier must be text, got {type(text).__name__}")
    if not text:
        raise ValueError("identifier is empty")
    index, char = next((i, c) for i, c in enumerate(text) if c not in _IDENTIFIER_CHARS)
    raise ValueError(f"identifier {text!r}: character {char!r} illegal at index {index}")


def validate_identifier(text: str) -> Identifier:
    """Validate *text* as an identifier, reporting the first bad position."""
    return Identifier(text)


def misfits(pattern: str) -> Callable[[Sequence[str]], Sequence[int]]:
    """A function from a column's cells to the indices of those that
    *pattern* does not match in full.  It matches the cells joined by line
    breaks first, and each cell on its own only when that fails."""
    cell = re.compile(pattern).fullmatch
    lines = re.compile(rf"(?:(?:{pattern})\n)*(?:{pattern})").fullmatch

    def find(cells: Sequence[str]) -> Sequence[int]:
        text = "\n".join(cells)
        if text.count("\n") == len(cells) - 1 and lines(text):
            return ()
        return [*compress(count(), map(not_, map(cell, cells)))]

    return find


_IRI_MISFITS = misfits(_IRI)


class Checked(tuple):
    """Base of the validated named tuples: ``class X(Checked, _XFields)``,
    where ``_XFields`` is a ``NamedTuple`` of X's fields and X defines
    ``_check(self)``, which raises ``ValueError`` for a bad value.

    X equals, and hashes like, the plain tuple of its fields, so comparing
    and hashing run in C.  Every way of making one (a call with positions,
    keywords or defaults, ``_make``, ``_replace``, ``copy.replace``, copy
    and pickle) runs ``_check``.  A bulk path that has checked many values
    at once may make them with ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> Any:
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> Any:
        return cls(*iterable)

    def __reduce__(self) -> tuple:
        return type(self), tuple(self)


class _IriFields(NamedTuple):
    value: str


class Iri(Checked, _IriFields):
    """Absolute IRI of the form ``scheme://authority/path``."""

    __slots__ = ()

    def _check(self) -> None:
        if not isinstance(self.value, str) or not _IRI_RE.match(self.value):
            raise ValueError(
                f"invalid IRI (expected scheme://authority/path, no spaces): {self.value!r}"
            )

    @classmethod
    def many(cls, values: Sequence[str]) -> list[Iri]:
        """``[Iri(value) for value in values]``, checked in one pass.

        The values are checked as the lines of one text (see ``misfits``).
        If any is bad, each is made in turn, so the first bad one raises
        what ``Iri`` raises for it.
        """
        if {*map(type, values)} <= {str} and not _IRI_MISFITS(values):
            return [*map(tuple.__new__, repeat(cls), zip(values))]
        return [*map(cls, values)]

    def __str__(self) -> str:
        return self.value


def mint_iri(base: Iri, segments: Sequence[str | Identifier]) -> Iri:
    """Append identifier segments to *base*, separated by ``/``.

    Deterministic: the same inputs always produce the same IRI.  Each segment
    must be a valid identifier (``[A-Za-z0-9._-]+``), which needs no escaping
    and keeps the result injective over distinct segment lists (no segment
    can contain ``/``).
    """
    if not segments:
        raise ValueError("mint_iri requires at least one segment")
    values = [
        segment.value if isinstance(segment, Identifier) else check_identifier(segment)
        for segment in segments
    ]
    return Iri(base.value.rstrip("/") + "/" + "/".join(values))


class TermTable(dict):
    """Key -> ``make(key)``, made on the key's first lookup and then shared.

    A build or an export keeps one for the length of the call, so each
    distinct term is checked, built or rendered once.
    """

    def __init__(self, make: Callable[[Any], Any]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.make(key)
        return value


class _LabelFields(NamedTuple):
    text: str
    language: str = "en"


class Label(Checked, _LabelFields):
    """Human-readable text with a BCP-47-style language tag."""

    __slots__ = ()

    def _check(self) -> None:
        if not isinstance(self.text, str) or not self.text.strip():
            raise ValueError("label text is empty")
        if not isinstance(self.language, str) or not _LANGUAGE_RE.match(self.language):
            raise ValueError(f"invalid language tag: {self.language!r}")


@dataclass(frozen=True)
class Provenance:
    """Where an artifact came from and when it was recorded (UTC)."""

    source_id: Identifier
    timestamp: datetime

    def __post_init__(self) -> None:
        if self.timestamp.tzinfo is None:
            raise ValueError("provenance timestamp must be timezone-aware UTC")


def format_timestamp(at: datetime) -> str:
    """Render *at* as RFC 3339 ``YYYY-MM-DDTHH:MM:SSZ`` (UTC, second precision)."""
    return at.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def timestamp_identifier(at: datetime) -> str:
    """Identifier-safe timestamp rendering (colons replaced by dashes)."""
    return format_timestamp(at).replace(":", "-")


def parse_timestamp(text: str) -> datetime:
    """Parse the RFC 3339 ``Z`` form produced by :func:`format_timestamp`."""
    try:
        parsed = datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ")
    except ValueError as exc:
        raise ValueError(f"invalid timestamp {text!r}: expected YYYY-MM-DDTHH:MM:SSZ") from exc
    return parsed.replace(tzinfo=timezone.utc)


# ---------------------------------------------------------------------------
# Reading JSON documents
#
# Every loader parses with ``parse_json`` and checks each object it walks
# against a ``Fields`` table, so a malformed document always ends in a
# ``FormatError`` whose text names the document or object at fault.


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause Python's cyclic garbage collector for the ``with`` block.

    For loaders that build a great many objects which form no reference
    cycles: the collector runs a pass every few hundred new containers,
    and now and then a full pass over the whole heap, and none of them can
    free what such a loader makes.  The objects made in the block still
    count towards the next pass, which runs soon after the block ends.  The
    collector is turned back on only if it was on, so a caller's own
    ``gc.disable()`` holds.  The pause is process-wide: other threads run
    without cyclic collection while the block runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def parse_json(document: str | bytes, what: str) -> object:
    """Parse *document*, reporting a syntax error as a ``FormatError``.

    ``json.loads`` reads ordinary documents far faster than the stack-based
    reader, which takes over only past ``json``'s recursion limit.
    """
    try:
        try:
            return json.loads(document)
        except RecursionError:
            return _load_deep_json(document)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{what}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what}: {exc}") from None


_SPACE_RE = re.compile(r"[ \t\n\r]*")
_scan_scalar = json.JSONDecoder().scan_once


def _load_deep_json(document: str | bytes) -> object:
    """``json.loads`` for documents nested deeper than its recursion limit.

    Open arrays and objects wait on an explicit stack, each with the key its
    next value goes under; ``json``'s own scanner reads the scalars.  Errors
    are the ``JSONDecodeError`` that ``json.loads`` raises, at the same
    position.
    """
    text = document
    if isinstance(text, bytes):
        text = text.decode(json.detect_encoding(text), "surrogatepass")

    def fail(message: str, position: int) -> json.JSONDecodeError:
        return json.JSONDecodeError(message, text, position)

    def skip(position: int) -> int:
        return _SPACE_RE.match(text, position).end()

    def key_at(position: int) -> tuple[str, int]:
        if text[position:position + 1] != '"':
            raise fail("Expecting property name enclosed in double quotes", position)
        key, position = json.decoder.scanstring(text, position + 1)
        position = skip(position)
        if text[position:position + 1] != ":":
            raise fail("Expecting ':' delimiter", position)
        return key, skip(position + 1)

    pending: list[tuple[list | dict, str | None]] = []
    position = skip(0)
    while True:
        char = text[position:position + 1]
        if char in ("[", "{"):
            position = skip(position + 1)
            if text[position:position + 1] == ("]" if char == "[" else "}"):
                value, position = ([] if char == "[" else {}), position + 1
            elif char == "[":
                pending.append(([], None))
                continue
            else:
                key, position = key_at(position)
                pending.append(({}, key))
                continue
        else:
            try:
                value, position = _scan_scalar(text, position)
            except StopIteration:
                raise fail("Expecting value", position) from None
        # Hand the finished value to the containers it closes.
        while True:
            position = skip(position)
            if not pending:
                if position != len(text):
                    raise fail("Extra data", position)
                return value
            container, key = pending[-1]
            if isinstance(container, list):
                container.append(value)
            else:
                container[key] = value
            char, position = text[position:position + 1], position + 1
            if char == ",":
                position = skip(position)
                if isinstance(container, dict):
                    key, position = key_at(position)
                    pending[-1] = (container, key)
                break
            if char != ("]" if isinstance(container, list) else "}"):
                raise fail("Expecting ',' delimiter", position - 1)
            value = pending.pop()[0]


# The kinds a field may take: how messages name each, the JSON type it
# must have (booleans are not integers here, and nothing is coerced) and a
# further test its value must pass, if any.
_KINDS: dict[str, tuple[str, type, Callable[[Any], object] | None]] = {
    "string": ("a string", str, None),
    "label": ("a non-blank string", str, str.strip),
    "identifier": ("a string of [A-Za-z0-9._-]", str, _IDENTIFIER_RE.match),
    "bool": ("a boolean", bool, None),
    "int": ("an integer", int, None),
    "strings": ("a list of strings", list, lambda v: {*map(type, v)} <= {str}),
    "objects": ("a list of objects", list, lambda v: {*map(type, v)} <= {dict}),
    "object": ("an object", dict, None),
}
_MISSING = object()
_IDENTIFIER_MISFITS = misfits(_IDENTIFIER)
# How ``Fields.columns`` tests a whole column of a kind with a further test
# (a default passes its kind's test; ``null`` cells are left out first).
_COLUMN_TESTS: dict[str, Callable[[list], bool]] = {
    kind: lambda column, test=test: all(map(test, column))
    for kind, (_, _, test) in _KINDS.items()
    if test is not None
}
_COLUMN_TESTS["identifier"] = lambda column: not _IDENTIFIER_MISFITS(column)
_COLUMN_TESTS["strings"] = lambda column: {*map(type, chain.from_iterable(column))} <= {str}
_not_none = partial(is_not, None)


def check(value: object, kind: str, what: str) -> None:
    """Raise ``FormatError`` unless *value* is of *kind*, a field kind."""
    noun, json_type, test = _KINDS[kind]
    if type(value) is not json_type or (test is not None and not test(value)):
        raise FormatError(f"{what} must be {noun}")


class Fields:
    """The field table of one kind of JSON object.

    Each entry is ``(key, kind)`` for a required key or ``(key, kind,
    default)`` for an optional one, where *kind* is one of ``string``,
    ``label``, ``identifier``, ``bool``, ``int``, ``strings``, ``objects``
    and ``object``.  An optional key whose default is ``None`` may also
    hold ``null``.  Keys outside the table are rejected.
    """

    def __init__(self, *fields: tuple) -> None:
        self._fields = tuple(
            (key, *_KINDS[kind], rest[0] if rest else _MISSING) for key, kind, *rest in fields
        )
        self._keys = frozenset(field[0] for field in self._fields)
        # Per key, for ``columns``: its default, the types its cells may have
        # (an absent key's cell holds the default) and its column test.
        self._columns = [
            (key, default, {json_type} if default is _MISSING else {json_type, type(default)},
             _COLUMN_TESTS.get(kind))
            for (key, kind, *_), (_, _, json_type, _, default) in zip(fields, self._fields)
        ]

    def read(self, raw: object, where: str) -> list:
        """The values of *raw* in table order, defaults filled in.

        Checks *raw* in one pass and raises ``FormatError`` naming *where*
        for anything but an object with the table's keys and kinds.
        """
        if type(raw) is not dict:
            raise FormatError(f"{where}: must be a JSON object")
        values = []
        absent = 0
        get, keep = raw.get, values.append
        for key, noun, json_type, test, default in self._fields:
            value = get(key, _MISSING)
            if value is _MISSING:
                if default is _MISSING:
                    self._fail(raw, where, f"missing key {key!r}")
                absent += 1
                value = default
            elif type(value) is not json_type or (test is not None and not test(value)):
                if value is not None or default is not None:
                    self._fail(raw, where, f"{key!r} must be {noun}")
            keep(value)
        # JSON keys are unique, so *raw* holds a key outside the table exactly
        # when it holds more keys than the table keys it was found to have.
        if len(raw) + absent > len(self._fields):
            self._fail(raw, where, "")
        return values

    def columns(self, raws: list, where: str) -> list[list]:
        """The values of the objects of *raws*, one list per key of the
        table, in table order, defaults filled in.

        Meant for long lists of objects: a few passes in C per key check the
        whole list (the objects' types, each column's value types and test)
        and one total count finds keys outside the table, since the objects'
        sizes sum to the objects times the keys, less the optional keys
        absent, exactly when there are none.  If any check fails, the objects
        are read one at a time with :meth:`read`, so the first bad object
        raises the message ``read`` gives for it.
        """
        if {*map(type, raws)} <= {dict}:
            columns = self._checked_columns(raws)
            if columns is not None:
                return columns
        return [*map(list, zip(*[self.read(raw, where) for raw in raws]))]

    def _checked_columns(self, raws: list[dict]) -> list[list] | None:
        """What ``columns`` returns for *raws*, or ``None`` if any is bad."""
        size = len(raws) * len(self._columns)
        columns = []
        for key, default, types, test in self._columns:
            if default is _MISSING:
                try:
                    column = [*map(itemgetter(key), raws)]
                except KeyError:
                    return None
            else:
                present = sum(map(dict.__contains__, raws, repeat(key)))
                size -= len(raws) - present
                if not present:
                    columns.append([default] * len(raws))
                    continue
                column = [*map(dict.get, raws, repeat(key), repeat(default))]
            if not {*map(type, column)} <= types:
                return None
            if test is not None:
                cells = column if default is not None else [*filter(_not_none, column)]
                if not test(cells):
                    return None
            columns.append(column)
        return columns if sum(map(len, raws)) == size else None

    def _fail(self, raw: dict, where: str, problem: str) -> None:
        """Raise for *problem*, or first for the unknown keys of *raw*."""
        unknown = sorted(raw.keys() - self._keys)
        raise FormatError(f"{where}: unknown keys {unknown}" if unknown else f"{where}: {problem}")


ERROR = "error"
WARNING = "warning"

# Closed rule registry.  Each linter draws its codes and severities from here
# so that findings are stable test targets across the whole toolkit.
RULES: dict[str, tuple[str, str]] = {
    "IC1": (ERROR, "siblings in one array carry different characteristics"),
    "IC2": (ERROR, "chain characteristics out of declared succession order"),
    "IC3": (WARNING, "array neither declared exhaustive nor given a residual child"),
    "IC4": (ERROR, "siblings share a characteristic value or label"),
    "IC5": (WARNING, "siblings stored out of ordinal order"),
    "CH1": (ERROR, "chain link does not add exactly one characteristic value"),
    "VP1": (ERROR, "label contains a stoplisted word"),
    "NP1": (ERROR, "one identifier maps to more than one notation"),
    "NP2": (ERROR, "one notation resolves to more than one concept"),
    "CC1": (ERROR, "records of one resource type present different field sets"),
    "CC2": (WARNING, "heading derives from neither the chain nor a sought field"),
    "CC3": (ERROR, "local variation template must contain {value} exactly once"),
    "LO1": (WARNING, "schema class name did not resolve to a word sense"),
    "LO2": (ERROR, "ontology does not have exactly one root"),
    "LO3": (ERROR, "ontology nodes do not form a tree"),
    "LO4": (ERROR, "sibling ontology nodes share a label"),
    "EP1": (ERROR, "entity type has no identifying data property on its chain"),
    "EP2": (ERROR, "property domain or range does not resolve to a type"),
    "EP3": (ERROR, "property name redeclared along an inheritance chain"),
    "GR1": (WARNING, "ontology node grounded by inheriting an ancestor's type"),
    "IG1": (WARNING, "cell value failed its datatype cast and was dropped"),
    "IG2": (ERROR, "duplicate row identifier in a dataset"),
    "IG3": (ERROR, "row identifier already used by another dataset of the same entity type"),
    "LK1": (ERROR, "link target missing and the dangling policy is error"),
    "LK2": (WARNING, "link target missing; link dropped"),
    "LK3": (WARNING, "link target missing; stub entity created"),
}

_RULE_ORDER = {code: index for index, code in enumerate(RULES)}


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a linter or pipeline step."""

    code: str
    severity: str
    path: str
    message: str

    def __post_init__(self) -> None:
        if self.code not in RULES:
            raise ValueError(f"unregistered rule code: {self.code!r}")
        if self.severity != RULES[self.code][0]:
            raise ValueError(
                f"rule {self.code} is registered as {RULES[self.code][0]!r},"
                f" not {self.severity!r}"
            )

    def render(self) -> str:
        return f"{self.severity} {self.code} {self.path}: {self.message}"


def finding(code: str, path: str, message: str) -> Finding:
    """Build a finding, taking the severity from the rule registry."""
    return Finding(code, RULES[code][0], path, message)


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Canonical finding order: registry order, then path, then message."""
    return sorted(findings, key=lambda f: (_RULE_ORDER[f.code], f.path, f.message))


def has_errors(findings: Iterable[Finding]) -> bool:
    return any(f.severity == ERROR for f in findings)


# ---------------------------------------------------------------------------
# Checks that schedules, lexicons, ontologies and ETGs share: each is a tree
# stored as members that name their parents.


def parent_cycles(
    members: Mapping[Hashable, Any], parent: Callable[[Any], Hashable | None]
) -> Iterator[tuple[Hashable, list]]:
    """Each cycle in *members*, a map from id to member whose parent id is
    ``parent(member)``.

    Walks up from each member in mapping order and stops at ``None``, at a
    parent outside the map and at a member an earlier walk passed, so every
    member is walked once; only the first walk to enter a cycle meets a
    member twice.  Yields the last member walked before the repeat and the
    cycle's members, sorted.
    """
    walk_of: dict = {}  # each member walked to the member its walk started from
    for start in members:
        trail = []
        current = start
        while current is not None and current in members and current not in walk_of:
            walk_of[current] = start
            trail.append(current)
            last, current = current, parent(members[current])
        if current in walk_of and walk_of[current] == start:  # this walk met itself
            yield last, sorted(trail[trail.index(current):])


def shared_label_findings(
    code: str, where: str, members: Iterable[tuple[Hashable, str, str]]
) -> Iterator[Finding]:
    """A finding at ``where/id`` for each ``(parent, id, label)`` whose label,
    stripped and lowercased, a sibling stored before it already has."""
    first: dict[tuple[Hashable, str], str] = {}
    for parent, member_id, label in members:
        key = (parent, label.strip().lower())
        if key in first:
            yield finding(
                code, f"{where}/{member_id}", f"label {label!r} shared with sibling {first[key]!r}"
            )
        else:
            first[key] = member_id


def holds_stopword(labels: Iterable[str], stoplist: set[str]) -> bool:
    """Whether a word of one of *labels*, lowercased, is in *stoplist*.

    One ``findall`` reads the labels joined by line breaks, which no word
    spans.  Each word is lowercased after it is found, as
    ``stopword_findings`` does: lowercasing the text first would differ,
    since the Kelvin sign, outside the word pattern, lowercases to ``k``.
    """
    return not stoplist.isdisjoint(map(str.lower, _WORD_RE.findall("\n".join(labels))))


def stopword_findings(path: str, label: str, stoplist: set[str]) -> list[Finding]:
    """A VP1 finding for each word of *label*, lowercased, that *stoplist* holds."""
    words = {word.lower() for word in _WORD_RE.findall(label)}
    return [
        finding("VP1", path, f"label {label!r} contains stopword {word!r}")
        for word in sorted(words & stoplist)
    ]
