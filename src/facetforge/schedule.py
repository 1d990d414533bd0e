"""Faceted classification schedules and their quality linter.

A schedule is a base class plus facet categories, each holding one or more
arrays (sibling groups) of concepts.  ``lint_schedule`` checks the structural
quality rules IC1-IC5, CH1, VP1, NP1 and NP2; every rule is a fixed,
conservative formalization so that findings are stable test targets.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import count, repeat
from operator import attrgetter, lt
from typing import Iterator, NamedTuple, Sequence

from .core import (
    Checked,
    Fields,
    Finding,
    FormatError,
    Label,
    finding,
    holds_stopword,
    misfits,
    parent_cycles,
    parse_json,
    sort_findings,
    stopword_findings,
)

__all__ = [
    "INDICATORS",
    "Characteristic",
    "ClassificationSchedule",
    "Concept",
    "FacetCategory",
    "LintConfig",
    "children",
    "full_notation",
    "lint_schedule",
    "load_schedule",
    "resolve_notation",
]

INDICATORS = (",", ";", ":", ".", "'")
_RESERVED = re.compile(r"[\s,;:.']")  # whitespace and the INDICATORS
# Finds the notations of a column that are empty or hold a _RESERVED character.
_NOTATION_MISFITS = misfits(r"[^\s,;:.']+")


@dataclass(frozen=True)
class Characteristic:
    """A characteristic of division; schedules reference these by name."""

    name: str
    description: str = ""


class _ConceptFields(NamedTuple):
    id: str
    notation: str
    label: Label
    characteristic_value: tuple[str, str] | None = None
    parent: str | None = None
    sought: bool = True
    residual: bool = False
    ordinal: int = 0


class Concept(Checked, _ConceptFields):
    """One concept in a schedule.

    ``notation`` is the concept's own segment; its full notation is the
    concatenation of segments from its array root down to it.
    ``characteristic_value`` is absent only for the schedule base.

    ``load_schedule`` checks a category's concepts and labels in bulk, a
    column at a time, and makes them with ``tuple.__new__``; a category
    with any fault is read again concept by concept, so the first bad
    concept raises.
    """

    __slots__ = ()

    def _check(self) -> None:
        if not self.notation:
            raise ValueError(f"concept {self.id!r}: notation is empty")


_ID, _PARENT, _LABEL_TEXT = attrgetter("id"), attrgetter("parent"), attrgetter("label.text")


@dataclass(frozen=True)
class FacetCategory:
    """A facet category: one letter code, one indicator, one concept forest.

    The category indexes its concepts once, when it is built: ``_by_id`` maps
    each id to its concept (the last one stored wins when a directly built
    category repeats an id), ``_children`` maps each parent id to its
    children in stored order, with the roots under ``None``, and
    ``_segments`` maps each parent id to its children's longest notation
    segment and to its children by segment (``None`` for a segment two of
    them share).  The index is never changed afterwards and takes no part
    in ``==``, ``hash`` or ``repr``.
    """

    code: str
    indicator: str
    characteristic: str
    concepts: tuple[Concept, ...] = ()
    _by_id: dict[str, Concept] = field(init=False, repr=False, compare=False)
    _children: dict[str | None, tuple[Concept, ...]] = field(
        init=False, repr=False, compare=False
    )
    _segments: dict[str | None, tuple[int, dict[str, Concept | None]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.code) != 1 or not self.code.isalpha():
            raise ValueError(f"category code must be a single letter: {self.code!r}")
        if self.indicator not in INDICATORS:
            raise ValueError(f"category {self.code}: indicator {self.indicator!r} not allowed")
        groups: dict[str | None, list[Concept]] = {}
        for concept in self.concepts:
            groups.setdefault(concept.parent, []).append(concept)
        object.__setattr__(self, "_by_id", {c.id: c for c in self.concepts})
        object.__setattr__(
            self, "_children", {parent: tuple(kids) for parent, kids in groups.items()}
        )
        segments = {}
        for parent, kids in groups.items():
            by_segment: dict[str, Concept | None] = {}
            for kid in kids:
                by_segment[kid.notation] = None if kid.notation in by_segment else kid
            segments[parent] = (max(map(len, by_segment)), by_segment)
        object.__setattr__(self, "_segments", segments)

    def roots(self) -> list[Concept]:
        return list(self._children.get(None, ()))

    def children_of(self, concept_id: str) -> list[Concept]:
        return list(self._children.get(concept_id, ()))

    def concept(self, concept_id: str) -> Concept:
        try:
            return self._by_id[concept_id]
        except KeyError:
            raise ValueError(f"category {self.code}: unknown concept {concept_id!r}") from None


@dataclass(frozen=True)
class ClassificationSchedule:
    id: str
    base: Concept
    succession: tuple[str, ...]
    categories: tuple[FacetCategory, ...] = ()
    reticence_stoplist: tuple[str, ...] = ()
    characteristics: tuple[Characteristic, ...] = ()

    def __post_init__(self) -> None:
        described = [c.name for c in self.characteristics]
        if len(set(described)) != len(described):
            raise ValueError(f"schedule {self.id}: duplicate characteristic description")
        unknown = sorted(set(described) - set(self.succession))
        if unknown:
            raise ValueError(
                f"schedule {self.id}: characteristics {unknown} not in succession"
            )

    def characteristic(self, name: str) -> Characteristic:
        """The description record for a succession entry (empty by default)."""
        if name not in self.succession:
            raise ValueError(f"schedule {self.id}: unknown characteristic {name!r}")
        for item in self.characteristics:
            if item.name == name:
                return item
        return Characteristic(name)

    def category(self, code: str) -> FacetCategory:
        for category in self.categories:
            if category.code == code:
                return category
        raise ValueError(f"schedule {self.id}: unknown category {code!r}")

    def find_concept(self, concept_id: str) -> tuple[FacetCategory | None, Concept]:
        if concept_id == self.base.id:
            return None, self.base
        for category in self.categories:
            concept = category._by_id.get(concept_id)
            if concept is not None:
                return category, concept
        raise ValueError(f"schedule {self.id}: unknown concept {concept_id!r}")


def _path_to_root(category: FacetCategory, concept: Concept) -> list[Concept]:
    """Concepts from the array root down to *concept* (inclusive)."""
    path = [concept]
    seen = {concept.id}
    while path[-1].parent is not None:
        parent = category._by_id.get(path[-1].parent)
        if parent is None or parent.id in seen:
            raise ValueError(
                f"category {category.code}: broken parent chain at {path[-1].id!r}"
            )
        seen.add(parent.id)
        path.append(parent)
    path.reverse()
    return path


def full_notation(category: FacetCategory, concept: Concept) -> str:
    """Concatenated notation segments from the array root to *concept*."""
    return "".join(c.notation for c in _path_to_root(category, concept))


# ---------------------------------------------------------------------------
# Loading


_SCHEDULE = Fields(
    ("id", "identifier"), ("base", "object"), ("succession", "strings"),
    ("stoplist", "strings", ()), ("categories", "objects", ()),
)
_BASE = Fields(("id", "identifier"), ("notation", "string"), ("label", "label"))
_CATEGORY = Fields(
    ("code", "string"), ("indicator", "string"), ("characteristic", "string"),
    ("concepts", "objects", ()),
)
_CONCEPT = Fields(
    ("id", "identifier"), ("notation", "string"), ("label", "label"), ("value", "string"),
    ("parent", "string", None), ("sought", "bool", True), ("residual", "bool", False),
    ("ordinal", "int"),
)


def _check_notation(notation: str, where: str) -> None:
    if not notation:
        raise FormatError(f"{where}: notation must be non-empty text")
    reserved = _RESERVED.search(notation)
    if reserved:
        raise FormatError(f"{where}: notation {notation!r} contains reserved {reserved[0]!r}")


def load_schedule(document: str | bytes) -> ClassificationSchedule:
    """Load and fully resolve a schedule from its JSON file format."""
    schedule_id, base_raw, succession, stoplist, categories_raw = _SCHEDULE.read(
        parse_json(document, "schedule"), "schedule"
    )
    base_id, base_notation, base_label = _BASE.read(base_raw, "schedule base")
    _check_notation(base_notation, "base")
    base = Concept(id=base_id, notation=base_notation, label=Label(base_label))

    succession = tuple(succession)
    if len(set(succession)) != len(succession):
        raise FormatError("schedule: duplicate characteristic in succession")

    categories: list[FacetCategory] = []
    seen_ids = {base.id}
    seen_codes: set[str] = set()
    seen_indicators: set[str] = set()
    for cat_raw in categories_raw:
        code, indicator, characteristic, concepts_raw = _CATEGORY.read(cat_raw, "category")
        where = f"category {code}"
        if code in seen_codes:
            raise FormatError(f"{where}: duplicate category code")
        if indicator in seen_indicators:
            raise FormatError(f"{where}: indicator {indicator!r} already used")
        if characteristic not in succession:
            raise FormatError(f"{where}: characteristic {characteristic!r} not in succession")
        seen_codes.add(code)
        seen_indicators.add(indicator)

        concepts = _read_concepts(concepts_raw, characteristic, seen_ids, where)
        _check_forest(code, concepts)
        try:
            category = FacetCategory(code, indicator, characteristic, tuple(concepts))
        except ValueError as exc:  # a bad code or indicator
            raise FormatError(str(exc)) from None
        _check_category_shape(category)
        categories.append(category)

    return ClassificationSchedule(
        id=schedule_id,
        base=base,
        succession=succession,
        categories=tuple(categories),
        reticence_stoplist=tuple(word.lower() for word in stoplist),
    )


def _read_concepts(
    raws: list, characteristic: str, seen_ids: set[str], where: str
) -> list[Concept]:
    """One category's concepts, checked and made a column at a time.

    ``Fields.columns`` checks the keys and kinds, then the ids are checked
    for repeats (within the category and against *seen_ids*, which takes
    them in) and the notations against the reserved characters, each with
    a pass or two over the whole column.  A category with any fault is read
    again concept by concept, so the first bad concept in stored order
    raises the loader's ``FormatError``.
    """
    try:
        ids, notations, labels, values, parents, sought, residual, ordinals = (
            _CONCEPT.columns(raws, where)
        )
    except FormatError:
        return _read_each_concept(raws, characteristic, seen_ids, where)
    if len({*ids}) != len(ids) or not seen_ids.isdisjoint(ids) or _NOTATION_MISFITS(notations):
        return _read_each_concept(raws, characteristic, seen_ids, where)
    seen_ids.update(ids)
    labels = [*map(tuple.__new__, repeat(Label), zip(labels, repeat("en")))]
    values = zip(repeat(characteristic), values)
    return [
        *map(
            tuple.__new__,
            repeat(Concept),
            zip(ids, notations, labels, values, parents, sought, residual, ordinals),
        )
    ]


def _read_each_concept(
    raws: list, characteristic: str, seen_ids: set[str], where: str
) -> list[Concept]:
    """``_read_concepts`` one concept at a time, raising at the first fault."""
    concepts: list[Concept] = []
    for concept_raw in raws:
        concept_id, notation, label, value, parent, sought, residual, ordinal = (
            _CONCEPT.read(concept_raw, where)
        )
        if concept_id in seen_ids:
            raise FormatError(f"{where}: duplicate concept id {concept_id!r}")
        seen_ids.add(concept_id)
        _check_notation(notation, f"{where}/{concept_id}")
        concepts.append(
            Concept(
                id=concept_id,
                notation=notation,
                label=Label(label),
                characteristic_value=(characteristic, value),
                parent=parent,
                sought=sought,
                residual=residual,
                ordinal=ordinal,
            )
        )
    return concepts


def _check_forest(code: str, concepts: Sequence[Concept]) -> None:
    """Refuse a category whose concepts do not form a forest.

    In this order: an id stored twice, a parent that no concept of the
    category has, and a parent cycle, each with the loader's text and the
    first such fault in stored order.  ``load_schedule`` and
    ``lint_schedule`` share this check.

    A few passes in C pass the usual category, whose ids are distinct and
    whose concepts each come after their parent, which rules out a cycle;
    any other is walked one concept at a time.
    """
    ids = [*map(_ID, concepts)]
    parents = [*map(_PARENT, concepts)]
    order = dict(zip(ids, count()))
    if (
        len(order) == len(ids)
        and {*parents}.difference(order) <= {None}
        and all(map(lt, map(order.get, parents, repeat(-1)), count()))
    ):
        return
    by_id: dict[str, Concept] = {}
    for concept in concepts:
        if concept.id in by_id:
            raise FormatError(f"category {code}: duplicate concept id {concept.id!r}")
        by_id[concept.id] = concept
    for concept in concepts:
        if concept.parent is not None and concept.parent not in by_id:
            raise FormatError(f"category {code}: dangling reference {concept.parent!r}")
    for last, _ in parent_cycles(by_id, _PARENT):
        raise FormatError(f"category {code}: broken parent chain at {last!r}")


def _check_category_shape(category: FacetCategory) -> None:
    """Reject ambiguous sibling segments at load time.

    Sibling segments must be prefix-free: longest-match resolution is exact
    only under that restriction, and class-number parsing relies on it.
    Only a category that fails ``_prefix_free`` is checked group by group,
    in the order that names its first bad group.
    """
    if _prefix_free(category):
        return
    _check_siblings(category, category.roots())
    for concept in category.concepts:
        kids = category._children.get(concept.id)
        if kids:
            _check_siblings(category, kids)


def _prefix_free(category: FacetCategory) -> bool:
    """Whether each sibling group of *category*, the roots included, has
    distinct segments none of which is a prefix of another.

    Then, since no segment is empty, no two concepts of the category share
    a full notation.  Segments that are distinct and all of one length
    pass without a sort.
    """
    for parent, (longest, by_segment) in category._segments.items():
        if len(by_segment) < len(category._children[parent]):
            return False
        if min(map(len, by_segment)) < longest:
            ordered = sorted(by_segment)
            if any(map(str.startswith, ordered[1:], ordered)):
                return False
    return True


def _check_siblings(category: FacetCategory, siblings: Sequence[Concept]) -> None:
    segments = [c.notation for c in siblings]
    if len(set(segments)) != len(segments):
        raise FormatError(f"category {category.code}: duplicate sibling notation")
    # Distinct segments are prefix-free exactly when no segment is a prefix
    # of the one after it in sorted order.
    ordered = sorted(segments)
    prefixes = {a for a, b in zip(ordered, ordered[1:]) if b.startswith(a)}
    if prefixes:
        # Name the pair that a scan of all pairs in stored order meets first.
        a = next(s for s in segments if s in prefixes)
        b = next(s for s in segments if s != a and s.startswith(a))
        raise FormatError(
            f"category {category.code}: sibling notations {a!r} and {b!r}"
            " are not prefix-free"
        )


# ---------------------------------------------------------------------------
# Linting


@dataclass(frozen=True)
class LintConfig:
    """Rule toggles for :func:`lint_schedule`.

    ``exhaustive_arrays`` is a set of array paths declared exhaustive; ``None``
    declares every array exhaustive, which silences IC3 by default (the
    shipped fixtures carry no residual children).
    """

    enabled: frozenset[str] | None = None
    exhaustive_arrays: frozenset[str] | None = None

    def rule_enabled(self, code: str) -> bool:
        return self.enabled is None or code in self.enabled


def _is_subsequence(needle: Sequence[str], haystack: tuple[str, ...]) -> bool:
    position = 0
    for item in needle:
        while position < len(haystack) and haystack[position] != item:
            position += 1
        if position == len(haystack):
            return False
        position += 1
    return True


def lint_schedule(
    schedule: ClassificationSchedule, config: LintConfig | None = None
) -> list[Finding]:
    """Apply the structural quality rules; returns canonical-ordered findings.

    Each category is first checked with the loader's forest check, so a
    category built in code with a repeated id, a dangling parent or a
    parent cycle raises the loader's ``FormatError``.  Then one walk down
    from the category's roots reaches each concept once, with its path, its
    full notation and its collapsed chain of characteristics, each its
    parent's extended by the concept's own step.  CH1, VP1, the array rules
    and, at each leaf, IC2 run as the walk reaches a concept; NP1 and NP2
    read the notations the walk recorded, in stored order.  No rule walks
    back up to a root, so lint is one walk per category for any depth.
    """
    config = config or LintConfig()
    enabled = config.rule_enabled
    stoplist = set(schedule.reticence_stoplist) if enabled("VP1") else set()
    findings = stopword_findings(schedule.base.id, schedule.base.label.text, stoplist)
    # NP1 looks at the ids stored more than once, counting the base.
    counts = Counter(c.id for category in schedule.categories for c in category.concepts)
    counts[schedule.base.id] += 1
    shared = {cid for cid, count in counts.items() if count > 1} if enabled("NP1") else set()
    occurrences: dict[str, list[str]] = {schedule.base.id: [schedule.base.notation]}

    for category in schedule.categories:
        _check_forest(category.code, category.concepts)
        _lint_array(category.code, category.roots(), config, findings)
        # VP1 reads each label on its own only in a category where one pass
        # over all its labels finds a stopword.
        vp1 = bool(stoplist) and holds_stopword(map(_LABEL_TEXT, category.concepts), stoplist)
        # Each concept's full notation, for NP2.  Two can coincide only in a
        # category with a sibling group whose segments repeat or are not
        # prefix-free, so only there is the table kept, one category's at a
        # time.
        notations = {} if enabled("NP2") and not _prefix_free(category) else None
        for concept, parent, path, notation, chain in _walk(category):
            if notations is not None:
                notations[concept.id] = notation
            if concept.id in shared:
                occurrences.setdefault(concept.id, []).append(f"{category.code}:{notation}")
            kids = category._children.get(concept.id)
            if kids:
                _lint_array(path, kids, config, findings)
            elif enabled("IC2") and not _is_subsequence(chain, schedule.succession):
                message = (
                    f"chain characteristics {list(chain)} do not follow"
                    f" succession {list(schedule.succession)}"
                )
                findings.append(finding("IC2", path, message))
            if enabled("CH1"):
                value = concept.characteristic_value
                if value is None:
                    findings.append(finding("CH1", path, "concept adds no characteristic value"))
                elif parent is not None and parent.characteristic_value == value:
                    findings.append(finding("CH1", path, "concept repeats its parent's value"))
            if vp1:
                findings.extend(stopword_findings(path, concept.label.text, stoplist))
        if notations is not None:
            first: dict[str, str] = {}
            for concept in category.concepts:
                notation = notations[concept.id]
                owner = first.setdefault(notation, concept.id)
                if owner != concept.id:
                    message = f"notation names both {owner!r} and {concept.id!r}"
                    findings.append(finding("NP2", f"{category.code}/{notation}", message))

    for concept_id, texts in occurrences.items():
        if len(texts) > 1:
            findings.append(finding("NP1", concept_id, f"id resolves to notations {sorted(texts)}"))
    return sort_findings(findings)


def _walk(
    category: FacetCategory,
) -> Iterator[tuple[Concept, Concept | None, str, str, tuple[str, ...]]]:
    """Each concept of a forest, parents first, with its parent, its path
    (``code/root-id/.../id``), its full notation and the characteristic
    names along its chain with consecutive repeats collapsed."""
    stack = [(root, None, category.code, "", ()) for root in category.roots()]
    while stack:
        concept, parent, path, notation, chain = stack.pop()
        path = f"{path}/{concept.id}"
        notation += concept.notation
        if concept.characteristic_value is not None:
            name = concept.characteristic_value[0]
            if not chain or chain[-1] != name:
                chain += (name,)
        yield concept, parent, path, notation, chain
        for kid in category._children.get(concept.id, ()):
            stack.append((kid, concept, path, notation, chain))


def _lint_array(
    path: str,
    siblings: Sequence[Concept],
    config: LintConfig,
    findings: list[Finding],
) -> None:
    if not siblings:
        return

    if config.rule_enabled("IC1"):
        names = {c.characteristic_value[0] for c in siblings if c.characteristic_value}
        if len(names) > 1:
            findings.append(
                finding("IC1", path, f"array mixes characteristics {sorted(names)}")
            )

    if config.rule_enabled("IC3"):
        exhaustive = config.exhaustive_arrays is None or path in config.exhaustive_arrays
        if not exhaustive and not any(c.residual for c in siblings):
            findings.append(
                finding("IC3", path, "array not exhaustive and has no residual child")
            )

    if config.rule_enabled("IC4"):
        seen_values: dict[str, str] = {}
        seen_labels: dict[str, str] = {}
        for concept in siblings:
            if concept.characteristic_value:
                value = concept.characteristic_value[1]
                if value in seen_values:
                    findings.append(
                        finding(
                            "IC4",
                            path,
                            f"value {value!r} shared by {seen_values[value]!r} and {concept.id!r}",
                        )
                    )
                else:
                    seen_values[value] = concept.id
            label_key = concept.label.text.strip().lower()
            if label_key in seen_labels:
                findings.append(
                    finding(
                        "IC4",
                        path,
                        f"label {concept.label.text!r} shared by"
                        f" {seen_labels[label_key]!r} and {concept.id!r}",
                    )
                )
            else:
                seen_labels[label_key] = concept.id

    if config.rule_enabled("IC5"):
        ordinals = [c.ordinal for c in siblings]
        if ordinals != sorted(ordinals):
            findings.append(finding("IC5", path, f"ordinals stored as {ordinals}"))


# ---------------------------------------------------------------------------
# Resolution


def resolve_notation(
    schedule: ClassificationSchedule, notation: str, category: str | None = None
) -> list[Concept]:
    """Resolve a full facet notation to its root-to-node concept path.

    Matching is longest-match, left-to-right within one category's arrays.
    When *category* is omitted every category is tried; a notation valid in
    more than one is reported as ambiguous.
    """
    if not notation:
        raise ValueError("empty notation")
    if category is not None:
        return _resolve_in_category(schedule.category(category), notation)
    matches: list[tuple[str, list[Concept]]] = []
    for cat in schedule.categories:
        try:
            matches.append((cat.code, _resolve_in_category(cat, notation)))
        except ValueError:
            continue
    if not matches:
        raise ValueError(f"schedule {schedule.id}: no concept matches notation {notation!r}")
    if len(matches) > 1:
        codes = [code for code, _ in matches]
        raise ValueError(f"notation {notation!r} is ambiguous across categories {codes}")
    return matches[0][1]


def _resolve_in_category(category: FacetCategory, notation: str) -> list[Concept]:
    """Each level takes the sibling whose segment is the longest prefix of
    what is left, found by probing those prefixes longest first."""
    parent = None
    remaining = notation
    path: list[Concept] = []
    while remaining:
        longest, level = category._segments.get(parent, _NO_CHILDREN)
        for length in range(min(longest, len(remaining)), 0, -1):
            segment = remaining[:length]
            if segment in level:
                break
        else:
            raise ValueError(
                f"category {category.code}: no concept matches notation {notation!r}"
            )
        chosen = level[segment]
        if chosen is None:
            ids = sorted(c.id for c in category._children[parent] if c.notation == segment)
            raise ValueError(
                f"category {category.code}: notation {notation!r} is ambiguous between {ids}"
            )
        path.append(chosen)
        remaining = remaining[length:]
        parent = chosen.id
    return path


_NO_CHILDREN: tuple[int, dict[str, Concept | None]] = (0, {})


def children(schedule: ClassificationSchedule, concept_id: str) -> list[Concept]:
    """Children of a concept, sorted by ordinal then notation."""
    category, _ = schedule.find_concept(concept_id)
    if category is None:
        return []
    kids = category.children_of(concept_id)
    return sorted(kids, key=lambda c: (c.ordinal, c.notation))
