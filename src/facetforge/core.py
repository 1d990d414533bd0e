"""Shared identifier, IRI, label, provenance, and diagnostic types.

Every other module builds on the value types defined here.  All of them are
immutable, so they can be shared freely between concurrent tasks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Sequence

__all__ = [
    "ERROR",
    "WARNING",
    "Finding",
    "FormatError",
    "Identifier",
    "Iri",
    "Label",
    "Provenance",
    "RULES",
    "finding",
    "format_timestamp",
    "has_errors",
    "mint_iri",
    "parse_timestamp",
    "sort_findings",
    "timestamp_identifier",
    "validate_identifier",
]

_IDENTIFIER_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-"
)
_IDENTIFIER_RE = re.compile(r"[A-Za-z0-9._-]+\Z")
_IRI_RE = re.compile(r"([A-Za-z][A-Za-z0-9+.-]*)://([^/\s]+)(/\S+)\Z")
_LANGUAGE_RE = re.compile(r"[A-Za-z]{2,8}(?:-[A-Za-z0-9]{1,8})*\Z")


class FormatError(ValueError):
    """An input document does not conform to its file format."""


@dataclass(frozen=True)
class Identifier:
    """Machine identifier restricted to ``[A-Za-z0-9._-]+``."""

    value: str

    def __post_init__(self) -> None:
        if not _IDENTIFIER_RE.match(self.value):
            raise ValueError(f"invalid identifier: {self.value!r}")

    def __str__(self) -> str:
        return self.value


def validate_identifier(text: str) -> Identifier:
    """Validate *text* as an identifier, reporting the first bad position."""
    if not isinstance(text, str):
        raise ValueError(f"identifier must be text, got {type(text).__name__}")
    if not text:
        raise ValueError("identifier is empty")
    for index, char in enumerate(text):
        if char not in _IDENTIFIER_CHARS:
            raise ValueError(
                f"identifier {text!r}: character {char!r} illegal at index {index}"
            )
    return Identifier(text)


@dataclass(frozen=True)
class Iri:
    """Absolute IRI of the form ``scheme://authority/path``."""

    value: str

    def __post_init__(self) -> None:
        if not isinstance(self.value, str) or not _IRI_RE.match(self.value):
            raise ValueError(
                f"invalid IRI (expected scheme://authority/path, no spaces): {self.value!r}"
            )

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
        segment.value if isinstance(segment, Identifier) else validate_identifier(segment).value
        for segment in segments
    ]
    return Iri(base.value.rstrip("/") + "/" + "/".join(values))


@dataclass(frozen=True)
class Label:
    """Human-readable text with a BCP-47-style language tag."""

    text: str
    language: str = "en"

    def __post_init__(self) -> None:
        if not isinstance(self.text, str) or not self.text.strip():
            raise ValueError("label text is empty")
        if not _LANGUAGE_RE.match(self.language):
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
