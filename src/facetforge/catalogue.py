"""Catalogue codes, call numbers, catalogue records, and the record linter.

A catalogue code fixes which metadata fields describe each resource type.
Records are plain ordered field lists plus subject headings, a call number,
and an accession number; ``lint_records`` checks the cataloguing rules
CC1-CC3.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .core import Checked, Fields, Finding, FormatError, check, finding, parse_json, sort_findings
from .facet import SubjectHeading

__all__ = [
    "CallNumber",
    "CatalogueCode",
    "CatalogueRecord",
    "ContextExemption",
    "FieldSpec",
    "LocalVariation",
    "build_record",
    "lint_records",
    "load_catalogue_code",
    "load_record",
    "make_call_number",
    "record_to_json",
]

_BOOK_PART_RE = re.compile(r"[A-Z]{1,3}[0-9]{2}(?:[0-9]+)?\Z")
_ASCII_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


@dataclass(frozen=True)
class FieldSpec:
    key: str
    required: bool
    sought: bool
    order: int


@dataclass(frozen=True)
class ContextExemption:
    resource_type: str
    field: str
    reason: str


@dataclass(frozen=True)
class LocalVariation:
    field: str
    template: str


@dataclass(frozen=True)
class CatalogueCode:
    id: str
    resource_types: Mapping[str, tuple[FieldSpec, ...]]
    context_exemptions: tuple[ContextExemption, ...] = ()
    local_variations: tuple[LocalVariation, ...] = ()

    def specs(self, resource_type: str) -> tuple[FieldSpec, ...]:
        if resource_type not in self.resource_types:
            raise ValueError(f"catalogue code {self.id}: unknown resource type {resource_type!r}")
        return self.resource_types[resource_type]


class _CallNumberFields(NamedTuple):
    class_part: str
    book_part: str


class CallNumber(Checked, _CallNumberFields):
    __slots__ = ()

    def _check(self) -> None:
        if not isinstance(self.class_part, str):
            raise ValueError(f"call number class part must be a string, got {self.class_part!r}")
        if not isinstance(self.book_part, str) or not _BOOK_PART_RE.match(self.book_part):
            raise ValueError(f"invalid book part {self.book_part!r}")


@dataclass(frozen=True)
class CatalogueRecord:
    record_id: str
    resource_type: str
    fields: tuple[tuple[str, str], ...]
    headings: tuple[SubjectHeading, ...]
    call_number: CallNumber
    accession_number: int

    def field_keys(self) -> set[str]:
        return {key for key, _ in self.fields}


# ---------------------------------------------------------------------------
# Loading


_CODE = Fields(
    ("id", "identifier"), ("resource_types", "object", {}), ("context_exemptions", "objects", ()),
    ("local_variations", "objects", ()),
)
_SPEC = Fields(("key", "identifier"), ("required", "bool"), ("sought", "bool"), ("order", "int"))
_EXEMPTION = Fields(("resource_type", "string"), ("field", "string"), ("reason", "string"))
_VARIATION = Fields(("field", "string"), ("template", "string"))


def load_catalogue_code(document: str | bytes) -> CatalogueCode:
    """Load a catalogue code from its JSON format, resolving cross-references."""
    code_id, types_raw, exemptions_raw, variations_raw = _CODE.read(
        parse_json(document, "catalogue code"), "catalogue code"
    )
    resource_types: dict[str, tuple[FieldSpec, ...]] = {}
    for type_name, raw_specs in types_raw.items():
        where = f"resource type {type_name}"
        check(type_name, "identifier", f"{where}: name")
        check(raw_specs, "objects", f"{where}: field list")
        specs: list[FieldSpec] = []
        keys: set[str] = set()
        orders: set[int] = set()
        for raw in raw_specs:
            spec = FieldSpec(*_SPEC.read(raw, where))
            if spec.key in keys:
                raise FormatError(f"{where}: duplicate field {spec.key!r}")
            if spec.order in orders:
                raise FormatError(f"{where}: duplicate order {spec.order}")
            keys.add(spec.key)
            orders.add(spec.order)
            specs.append(spec)
        resource_types[type_name] = tuple(sorted(specs, key=lambda s: s.order))

    all_fields = {s.key for specs in resource_types.values() for s in specs}

    exemptions: list[ContextExemption] = []
    for raw in exemptions_raw:
        exemption = ContextExemption(*_EXEMPTION.read(raw, "context exemption"))
        if exemption.resource_type not in resource_types:
            raise FormatError(
                f"context exemption references unknown type {exemption.resource_type!r}"
            )
        if exemption.field not in {s.key for s in resource_types[exemption.resource_type]}:
            raise FormatError(
                f"context exemption references unknown field {exemption.field!r}"
            )
        exemptions.append(exemption)

    variations: list[LocalVariation] = []
    for raw in variations_raw:
        variation = LocalVariation(*_VARIATION.read(raw, "local variation"))
        if variation.field not in all_fields:
            raise FormatError(f"local variation references unknown field {variation.field!r}")
        variations.append(variation)

    return CatalogueCode(code_id, resource_types, tuple(exemptions), tuple(variations))


# ---------------------------------------------------------------------------
# Call numbers and records


def make_call_number(
    class_number: str,
    author_surname: str,
    year: int,
    accession: int,
    existing: Iterable[CallNumber] = (),
) -> CallNumber:
    """Derive a call number: class part plus surname/year/accession book part.

    Book part rule: first up-to-three ASCII letters of the surname uppercased
    (other characters dropped) plus the last two digits of the year; on a
    collision with *existing* the accession number is appended, which is
    guaranteed unique for distinct accessions.
    """
    letters = "".join(ch for ch in author_surname if ch in _ASCII_LETTERS)[:3].upper()
    if not letters:
        raise ValueError(f"surname {author_surname!r} contains no letters")
    if type(year) is not int:
        raise ValueError(f"year must be an integer, got {year!r}")
    if not 1000 <= year <= 9999:
        raise ValueError(f"year must have four digits, got {year}")
    _check_accession(accession)

    taken = set(existing)
    candidate = CallNumber(class_number, f"{letters}{year % 100:02d}")
    if candidate not in taken:
        return candidate
    candidate = CallNumber(class_number, f"{candidate.book_part}{accession}")
    if candidate in taken:
        raise ValueError(
            f"call number {candidate.book_part!r} already registered; duplicate accession?"
        )
    return candidate


def _check_accession(accession: int) -> None:
    """Refuse what a record's JSON form could not give back: an accession
    number must be a positive ``int``, and not a ``bool`` or a ``float``."""
    if type(accession) is not int:
        raise ValueError(f"accession number must be an integer, got {accession!r}")
    if accession < 1:
        raise ValueError(f"accession number must be positive, got {accession}")


def build_record(
    code: CatalogueCode,
    resource_type: str,
    imprint: Mapping[str, str],
    headings: Sequence[SubjectHeading],
    call_number: CallNumber,
    accession: int,
) -> CatalogueRecord:
    """Assemble a catalogue record with fields ordered per the code."""
    for heading in headings:
        if not isinstance(heading, SubjectHeading):
            raise ValueError(f"heading must be a SubjectHeading, got {heading!r}")
    if not isinstance(call_number, CallNumber):
        raise ValueError(f"call number must be a CallNumber, got {call_number!r}")
    specs = code.specs(resource_type)
    spec_keys = {s.key for s in specs}

    unknown = sorted(set(imprint) - spec_keys)
    if unknown:
        raise ValueError(f"unknown field keys {unknown} for resource type {resource_type!r}")
    missing = [s.key for s in specs if s.required and s.key not in imprint]
    if missing:
        raise ValueError(f"missing required fields: {', '.join(missing)}")
    for key, value in imprint.items():
        if type(value) is not str:
            raise ValueError(f"field {key!r}: value must be a string, got {value!r}")
    _check_accession(accession)

    templates: dict[str, list[str]] = {}
    for variation in code.local_variations:
        templates.setdefault(variation.field, []).append(variation.template)

    fields: list[tuple[str, str]] = []
    for spec in specs:
        if spec.key not in imprint:
            continue
        value = imprint[spec.key]
        for template in templates.get(spec.key, []):
            value = template.replace("{value}", value)
        fields.append((spec.key, value))

    return CatalogueRecord(
        record_id=f"rec-{accession}",
        resource_type=resource_type,
        fields=tuple(fields),
        headings=tuple(headings),
        call_number=call_number,
        accession_number=accession,
    )


def record_to_json(record: CatalogueRecord) -> str:
    """Render a record with the documented top-level key order."""
    payload = {
        "record_id": record.record_id,
        "resource_type": record.resource_type,
        "call_number": {
            "class": record.call_number.class_part,
            "book": record.call_number.book_part,
        },
        "accession_number": record.accession_number,
        "headings": [
            {"heading": h.heading, "reference": h.reference} for h in record.headings
        ],
        "fields": [{"key": key, "value": value} for key, value in record.fields],
    }
    return json.dumps(payload, ensure_ascii=True, indent=2)


_RECORD = Fields(
    ("record_id", "string"), ("resource_type", "string"), ("call_number", "object"),
    ("accession_number", "int"), ("headings", "objects"), ("fields", "objects"),
)
_CALL_NUMBER = Fields(("class", "string"), ("book", "string"))
_HEADING = Fields(("heading", "string"), ("reference", "string"))
_FIELD = Fields(("key", "string"), ("value", "string"))


def load_record(document: str | bytes) -> CatalogueRecord:
    """Parse a record previously rendered by :func:`record_to_json`."""
    record_id, resource_type, call_raw, accession, headings_raw, fields_raw = _RECORD.read(
        parse_json(document, "record"), "record"
    )
    call_parts = _CALL_NUMBER.read(call_raw, "record call_number")
    heading_parts = [_HEADING.read(raw, "record heading") for raw in headings_raw]
    try:
        call_number = CallNumber(*call_parts)
        headings = tuple(SubjectHeading(*parts) for parts in heading_parts)
    except ValueError as exc:  # a bad book part or an empty heading
        raise FormatError(f"record: {exc}") from None
    return CatalogueRecord(
        record_id=record_id,
        resource_type=resource_type,
        fields=tuple(tuple(_FIELD.read(raw, "record field")) for raw in fields_raw),
        headings=headings,
        call_number=call_number,
        accession_number=accession,
    )


# ---------------------------------------------------------------------------
# Linting


def lint_records(
    code: CatalogueCode, records: Sequence[CatalogueRecord]
) -> list[Finding]:
    """Check the cataloguing rules CC1-CC3 over *records*."""
    for record in records:
        code.specs(record.resource_type)  # precondition: type exists

    findings: list[Finding] = []
    _lint_consistence(code, records, findings)
    _lint_sought_headings(code, records, findings)
    _lint_variation_templates(code, findings)
    return sort_findings(findings)


def _lint_consistence(
    code: CatalogueCode, records: Sequence[CatalogueRecord], findings: list[Finding]
) -> None:
    by_type: dict[str, list[CatalogueRecord]] = {}
    for record in records:
        by_type.setdefault(record.resource_type, []).append(record)
    exempt: dict[str, set[str]] = {}
    for exemption in code.context_exemptions:
        exempt.setdefault(exemption.resource_type, set()).add(exemption.field)

    for type_name, group in by_type.items():
        union: set[str] = set()
        for record in group:
            union |= record.field_keys()
        comparable = union - exempt.get(type_name, set())
        for record in group:
            for missing in sorted(comparable - record.field_keys()):
                findings.append(
                    finding(
                        "CC1",
                        f"{type_name}/{record.record_id}/{missing}",
                        f"record lacks field {missing!r} present on other"
                        f" {type_name} records",
                    )
                )


def _lint_sought_headings(
    code: CatalogueCode, records: Sequence[CatalogueRecord], findings: list[Finding]
) -> None:
    for record in records:
        sought_keys = {spec.key for spec in code.specs(record.resource_type) if spec.sought}
        sought_values = {value for key, value in record.fields if key in sought_keys}
        class_part = record.call_number.class_part
        for index, heading in enumerate(record.headings):
            from_chain = bool(heading.reference) and class_part.startswith(heading.reference)
            from_field = heading.heading in sought_values
            if not from_chain and not from_field:
                findings.append(
                    finding(
                        "CC2",
                        f"{record.resource_type}/{record.record_id}/headings/{index}",
                        f"heading {heading.heading!r} derives from neither the"
                        " chain nor a sought field",
                    )
                )


def _lint_variation_templates(code: CatalogueCode, findings: list[Finding]) -> None:
    for index, variation in enumerate(code.local_variations):
        count = variation.template.count("{value}")
        if count != 1:
            findings.append(
                finding(
                    "CC3",
                    f"local_variations/{index}",
                    f"template for {variation.field!r} contains {{value}} {count} times",
                )
            )
