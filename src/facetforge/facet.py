"""Facet formulas, class-number synthesis and parsing, and chain indexing.

A facet formula fixes the order and punctuation by which facet values are
combined after the base notation.  Synthesis and parsing are exact inverses
on the synthesizable range, and chain indexing rotates the resulting chain of
links into subject headings, most specific first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .core import Checked, Label
from .schedule import (
    INDICATORS,
    ClassificationSchedule,
    full_notation,
    resolve_notation,
)

__all__ = [
    "ChainLink",
    "ClassNumber",
    "FacetFormula",
    "FormulaSlot",
    "SubjectHeading",
    "chain_index",
    "chain_links",
    "class_number_string",
    "parse_class_number",
    "parse_formula",
    "synthesize_class_number",
]

_SLOT_RE = re.compile(r"(?P<indicator>[,;:.'])\[(?P<code>[A-Za-z])(?P<optional>\?)?\]")
# One facet of a class number: its indicator (one of INDICATORS), then its
# notation, which runs up to the next indicator.
_FACET_RE = re.compile(r"([,;:.'])([^,;:.']*)")


@dataclass(frozen=True)
class FormulaSlot:
    code: str
    required: bool


@dataclass(frozen=True)
class FacetFormula:
    slots: tuple[FormulaSlot, ...]

    def codes(self) -> list[str]:
        return [slot.code for slot in self.slots]


@dataclass(frozen=True)
class ClassNumber:
    """A synthesized class number: base plus ordered facet concept paths."""

    schedule_id: str
    base_notation: str
    facets: tuple[tuple[str, tuple[str, ...]], ...]


def parse_formula(text: str, schedule: ClassificationSchedule) -> FacetFormula:
    """Parse ``[B]<ind>[C]...`` formula text against *schedule*."""
    if not text.startswith("[B]"):
        raise ValueError(f"formula {text!r}: missing [B] head")
    position = 3
    slots: list[FormulaSlot] = []
    seen: set[str] = set()
    while position < len(text):
        match = _SLOT_RE.match(text, position)
        if not match:
            raise ValueError(f"formula {text!r}: bad slot syntax at index {position}")
        code = match.group("code")
        if code in seen:
            raise ValueError(f"formula {text!r}: duplicate code {code}")
        seen.add(code)
        category = schedule.category(code)  # raises on unknown code
        if category.indicator != match.group("indicator"):
            raise ValueError(
                f"formula {text!r}: category {code} uses indicator"
                f" {category.indicator!r}, not {match.group('indicator')!r}"
            )
        slots.append(FormulaSlot(code, required=match.group("optional") is None))
        position = match.end()
    return FacetFormula(tuple(slots))


def synthesize_class_number(
    schedule: ClassificationSchedule,
    formula: FacetFormula,
    assignments: Mapping[str, str],
) -> tuple[ClassNumber, str]:
    """Combine facet notations into a class number and its string form.

    Facets appear in formula slot order regardless of the assignment map's
    iteration order; optional unassigned slots are omitted together with
    their indicators.
    """
    unknown = sorted(set(assignments) - set(formula.codes()))
    if unknown:
        raise ValueError(f"assignment for codes not in formula: {unknown}")
    missing = [s.code for s in formula.slots if s.required and s.code not in assignments]
    if missing:
        raise ValueError(f"required facet {', '.join(missing)} missing")

    facets: list[tuple[str, tuple[str, ...]]] = []
    text = schedule.base.notation
    for slot in formula.slots:
        if slot.code not in assignments:
            continue
        notation = assignments[slot.code]
        path = resolve_notation(schedule, notation, slot.code)
        facets.append((slot.code, tuple(c.id for c in path)))
        text += schedule.category(slot.code).indicator + notation
    number = ClassNumber(schedule.id, schedule.base.notation, tuple(facets))
    return number, text


def class_number_string(schedule: ClassificationSchedule, number: ClassNumber) -> str:
    """Render a class number back to its canonical string."""
    text = number.base_notation
    for code, concept_ids in number.facets:
        category = schedule.category(code)
        leaf = category.concept(concept_ids[-1])
        text += category.indicator + full_notation(category, leaf)
    return text


def parse_class_number(
    schedule: ClassificationSchedule, formula: FacetFormula, text: str
) -> ClassNumber:
    """Parse a class-number string; inverse of synthesis on its range."""
    base = schedule.base.notation
    if not text.startswith(base):
        raise ValueError(f"class number {text!r}: base does not match {base!r}")
    remaining = text[len(base):]
    if remaining and remaining[0] not in INDICATORS:
        raise ValueError(f"class number {text!r}: trailing garbage {remaining!r}")
    pending = list(formula.slots)
    facets: list[tuple[str, tuple[str, ...]]] = []
    for indicator, notation in _FACET_RE.findall(remaining):
        slot_index = next(
            (i for i, slot in enumerate(pending)
             if schedule.category(slot.code).indicator == indicator),
            None,
        )
        if slot_index is None:
            raise ValueError(f"class number {text!r}: unexpected indicator {indicator!r}")
        slot = pending[slot_index]
        del pending[: slot_index + 1]
        if not notation:
            raise ValueError(f"class number {text!r}: empty facet after {indicator!r}")
        try:
            path = resolve_notation(schedule, notation, slot.code)
        except ValueError:
            raise ValueError(
                f"class number {text!r}: unresolvable {slot.code} notation {notation!r}"
            ) from None
        facets.append((slot.code, tuple(c.id for c in path)))

    return ClassNumber(schedule.id, base, tuple(facets))


@dataclass(frozen=True)
class ChainLink:
    """One link of a class number's chain: its prefix string and label."""

    prefix: str
    label: Label
    sought: bool


class _SubjectHeadingFields(NamedTuple):
    heading: str
    reference: str


class SubjectHeading(Checked, _SubjectHeadingFields):
    __slots__ = ()

    def _check(self) -> None:
        if not self.heading:
            raise ValueError("subject heading is empty")
        if not isinstance(self.heading, str) or not isinstance(self.reference, str):
            raise ValueError(f"subject heading parts must be strings, got {tuple(self)!r}")


def chain_links(schedule: ClassificationSchedule, number: ClassNumber) -> list[ChainLink]:
    """The chain: the base link, then one link per concept along each facet."""
    links = [ChainLink(number.base_notation, schedule.base.label, schedule.base.sought)]
    accumulated = number.base_notation
    for code, concept_ids in number.facets:
        category = schedule.category(code)
        facet_notation = ""
        for concept_id in concept_ids:
            concept = category.concept(concept_id)
            facet_notation += concept.notation
            links.append(
                ChainLink(
                    accumulated + category.indicator + facet_notation,
                    concept.label,
                    concept.sought,
                )
            )
        accumulated += category.indicator + facet_notation
    return links


def chain_index(
    schedule: ClassificationSchedule, number: ClassNumber
) -> list[SubjectHeading]:
    """Derive subject headings from a class number, most specific first.

    Unsought links get no heading of their own but still appear inside the
    label tails of deeper headings.
    """
    links = chain_links(schedule, number)
    texts = [link.label.text for link in links]
    headings: list[SubjectHeading] = []
    for index in range(len(links) - 1, -1, -1):
        if not links[index].sought:
            continue
        heading = ", ".join(reversed(texts[: index + 1]))
        headings.append(SubjectHeading(heading, links[index].prefix))
    return headings
