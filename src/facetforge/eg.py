"""Entity-graph assembly: dataset ingestion, triple building, and snapshots.

Tabular datasets are mapped onto a grounded schema graph by a declarative
mapping spec.  The build is deterministic: entity IRIs are minted from the
base IRI, triples are canonically ordered, and re-running with the same
inputs (including the timestamp) reproduces the same graph byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime
from functools import cached_property, partial
from itertools import compress, repeat, starmap
from operator import not_
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

from .core import (
    _IDENTIFIER,
    Checked,
    Fields,
    Finding,
    FormatError,
    Iri,
    TermTable,
    check,
    check_identifier,
    finding,
    format_timestamp,
    mint_iri,
    misfits,
    parse_json,
    sort_findings,
    timestamp_identifier,
)
from .etg import DATA_DATATYPES, SchemaGraph

__all__ = [
    "DanglingLinkError",
    "DataMap",
    "DatasetMapping",
    "Entity",
    "EntityGraph",
    "LinkMap",
    "Literal",
    "MappingSpec",
    "Snapshot",
    "Triple",
    "TypedRow",
    "build_entity_graph",
    "canonical_order",
    "derive_base",
    "ingest_dataset",
    "load_mapping_spec",
    "read_table",
    "snapshot",
    "type_iri",
    "type_predicate",
    "property_predicate",
]

DANGLING_POLICIES = ("error", "skip", "stub")
LITERAL_DATATYPES = ("string", "integer", "date")


class DanglingLinkError(ValueError):
    """A link target is missing and the dataset's dangling policy is error."""

    def __init__(self, message: str, offender: Finding):
        super().__init__(message)
        self.finding = offender


class _LiteralFields(NamedTuple):
    text: str
    datatype: str


class Literal(Checked, _LiteralFields):
    """A typed literal."""

    __slots__ = ()

    def _check(self) -> None:
        if not isinstance(self.text, str):
            raise ValueError(f"literal text must be a string, got {self.text!r}")
        if self.datatype not in LITERAL_DATATYPES:
            raise ValueError(f"literal datatype must be one of {LITERAL_DATATYPES}")

    @classmethod
    def many(cls, texts: Sequence[str], datatypes: Sequence[str]) -> list[Literal]:
        """``[Literal(t, d) for t, d in zip(texts, datatypes)]``, checked in
        one pass per column; if any text or datatype is bad, each is made in
        turn, so the first bad one raises what ``Literal`` raises for it."""
        if {*map(type, texts)} <= {str} and all(map(LITERAL_DATATYPES.__contains__, datatypes)):
            return [*map(tuple.__new__, repeat(cls), zip(texts, datatypes))]
        return [*map(cls, texts, datatypes)]


class Triple(NamedTuple):
    """One fact.  A named tuple: it equals, and hashes like, the plain
    ``(subject, predicate, object)`` tuple of its terms."""

    subject: Iri
    predicate: Iri
    object: Iri | Literal

    def sort_key(self) -> tuple:
        if isinstance(self.object, Iri):
            object_key = ("iri", self.object.value, "")
        else:
            object_key = ("lit", self.object.datatype, self.object.text)
        return (self.subject.value, self.predicate.value, object_key)


@dataclass(frozen=True)
class Entity:
    iri: Iri
    type: str


@dataclass(frozen=True)
class EntityGraph:
    """An entity graph, stored once as canonically ordered triples.

    Each entity is the subject of a ``<base>/prop/type`` triple (the last wins);
    its values are its other triples with a literal object, its links those
    with an IRI object; a type or property is named by its IRI's last segment.
    """

    iri: Iri
    timestamp: datetime
    sources: tuple[str, ...]
    triples: tuple[Triple, ...]

    @property
    def entities(self) -> tuple[Entity, ...]:
        """The typed subjects, in IRI order, read off ``entity_view``."""
        return tuple(starmap(Entity, self.entity_view[0].items()))

    def terms(self) -> list[Iri | Literal]:
        """All distinct terms appearing in the graph, deterministic order."""
        seen: dict[tuple, Iri | Literal] = {}
        for triple in self.triples:
            for term in (triple.subject, triple.predicate, triple.object):
                key = (
                    ("iri", term.value)
                    if isinstance(term, Iri)
                    else ("lit", term.datatype, term.text)
                )
                seen.setdefault(key, term)
        return [seen[key] for key in sorted(seen)]

    @cached_property
    def short_names(self) -> dict[str, tuple[Iri, ...]]:
        """Last IRI segment -> the graph's IRIs that end in it, in value order.

        Built from the triples on the first lookup and kept with the graph,
        which is frozen, so it cannot go stale; it takes no part in ``==``,
        ``hash`` or ``repr``.
        """
        iris = {
            term.value: term for triple in self.triples for term in triple if isinstance(term, Iri)
        }
        names: dict[str, list[Iri]] = {}
        for value in sorted(iris):
            names.setdefault(value.rsplit("/", 1)[-1], []).append(iris[value])
        return {name: tuple(terms) for name, terms in names.items()}

    @cached_property
    def by_predicate(self) -> dict[Iri, tuple[Triple, ...]]:
        """Each predicate -> the graph's triples that carry it, in graph
        order: a partition of ``triples``.

        Built from the triples by the first query with a constant predicate
        and kept like ``short_names``; builds, exports and snapshots never
        read it.
        """
        groups: dict[Iri, list[Triple]] = {}
        for triple in self.triples:
            groups.setdefault(triple.predicate, []).append(triple)
        return {predicate: tuple(group) for predicate, group in groups.items()}

    @cached_property
    def entity_view(self) -> tuple[dict, dict, tuple]:
        """``(types, values, links)``: each typed subject to its type name, in
        IRI order; each subject to its sorted ``(property, datatype, text)``
        values; the sorted ``(subject, property, object)`` link texts.  Kept
        like ``short_names``; builds, loads and queries never build it."""
        predicate_type = type_predicate(derive_base(self.iri))
        names = TermTable(lambda iri: iri.value.rsplit("/", 1)[1])  # type or property names
        types: dict[Iri, str] = {}
        values: dict[Iri, list[tuple[str, str, str]]] = {}
        links: list[tuple[str, str, str]] = []
        for subject, predicate, obj in self.triples:
            if predicate == predicate_type:
                types[subject] = names[obj]
            elif isinstance(obj, Literal):
                values.setdefault(subject, []).append((names[predicate], obj.datatype, obj.text))
            else:
                links.append((subject.value, names[predicate], obj.value))
        return (
            {subject: types[subject] for subject in sorted(types)},
            {subject: tuple(sorted(group)) for subject, group in values.items()},
            tuple(sorted(links)),
        )


# ---------------------------------------------------------------------------
# IRI conventions (fixed vocabulary for predicates and type terms)


def property_predicate(base: Iri, name: str) -> Iri:
    return mint_iri(base, ["prop", name])


def type_predicate(base: Iri) -> Iri:
    return mint_iri(base, ["prop", "type"])


def type_iri(base: Iri, type_id: str) -> Iri:
    return mint_iri(base, ["type", type_id])


def derive_base(eg_iri: Iri) -> Iri:
    """Recover the base IRI from an engine-minted EG IRI (``<base>/eg/<ts>``)."""
    segments = eg_iri.value.rsplit("/", 2)
    if len(segments) != 3 or segments[1] != "eg":
        raise ValueError(f"EG IRI {eg_iri.value!r} was not minted as <base>/eg/<timestamp>")
    return Iri(segments[0])


# ---------------------------------------------------------------------------
# Mapping specs


@dataclass(frozen=True)
class DataMap:
    column: str
    property: str
    datatype: str


@dataclass(frozen=True)
class LinkMap:
    column: str
    property: str
    target: str  # target dataset id


@dataclass(frozen=True)
class DatasetMapping:
    """One dataset's maps.  ``shares_property`` is derived: two of its maps
    name one property, so one row can emit a triple twice."""

    id: str
    entity_type: str
    id_column: str
    data_maps: tuple[DataMap, ...] = ()
    link_maps: tuple[LinkMap, ...] = ()
    dangling_policy: str = "error"
    shares_property: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [m.property for m in (*self.data_maps, *self.link_maps)]
        object.__setattr__(self, "shares_property", len(set(names)) < len(names))


@dataclass(frozen=True)
class MappingSpec:
    datasets: tuple[DatasetMapping, ...]

    def dataset(self, dataset_id: str) -> DatasetMapping:
        for entry in self.datasets:
            if entry.id == dataset_id:
                return entry
        raise ValueError(f"mapping spec has no dataset {dataset_id!r}")


_SPEC = Fields(("datasets", "objects", ()))
_DATASET = Fields(
    ("id", "identifier"), ("type", "string"), ("id_column", "string"), ("data_maps", "objects", ()),
    ("link_maps", "objects", ()), ("dangling_policy", "string", "error"),
)
_DATA_MAP = Fields(("column", "string"), ("property", "string"), ("datatype", "string"))
_LINK_MAP = Fields(("column", "string"), ("property", "string"), ("target", "string"))


def load_mapping_spec(document: str | bytes, schema_graph: SchemaGraph) -> MappingSpec:
    """Load a mapping spec and validate it against the grounded schema.

    Every object is read and checked for its fields first; the spec is then
    checked as ``build_entity_graph`` checks one built in code.
    """
    (datasets_raw,) = _SPEC.read(parse_json(document, "mapping spec"), "mapping spec")
    entries: list[DatasetMapping] = []
    for raw in datasets_raw:
        dataset_id, entity_type, id_column, data_raw, links_raw, policy = _DATASET.read(
            raw, "mapping spec dataset"
        )
        where = f"dataset {dataset_id}"
        data_maps = [DataMap(*_DATA_MAP.read(item, f"{where} data map")) for item in data_raw]
        link_maps = [LinkMap(*_LINK_MAP.read(item, f"{where} link map")) for item in links_raw]
        entries.append(
            DatasetMapping(
                dataset_id, entity_type, id_column, tuple(data_maps), tuple(link_maps), policy
            )
        )
    spec = MappingSpec(tuple(entries))
    _check_spec(spec, schema_graph)
    return spec


def _check_spec(spec: MappingSpec, schema_graph: SchemaGraph) -> None:
    """Raise ``FormatError`` for the first fault of *spec* against the ETG
    of *schema_graph*, in dataset and then map order; each link's target
    dataset and range are checked once every dataset has passed."""
    etg = schema_graph.etg
    type_index = etg.type_index()
    seen_ids: set[str] = set()
    for entry in spec.datasets:
        dataset_id, entity_type, policy = entry.id, entry.entity_type, entry.dangling_policy
        where = f"dataset {dataset_id}"
        if dataset_id in seen_ids:
            raise FormatError(f"mapping spec: duplicate dataset {dataset_id!r}")
        seen_ids.add(dataset_id)
        if entity_type not in type_index:
            raise FormatError(f"{where}: unknown entity type {entity_type!r}")
        if policy not in DANGLING_POLICIES:
            raise FormatError(f"{where}: unknown dangling policy {policy!r}")

        effective_data = etg.effective_data_properties(entity_type)
        seen_maps: set[tuple[str, str, str]] = set()
        for data_map in entry.data_maps:
            prop = effective_data.get(data_map.property)
            if prop is None:
                raise FormatError(
                    f"{where}: property {data_map.property!r} is not"
                    f" an effective data property of {entity_type!r}"
                )
            if prop.datatype != data_map.datatype:
                raise FormatError(
                    f"{where}: property {data_map.property!r} is"
                    f" declared {prop.datatype!r}, not {data_map.datatype!r}"
                )
            _check_repeat(dataset_id, "data", data_map, seen_maps)

        effective_objects = etg.effective_object_properties(entity_type)
        for link_map in entry.link_maps:
            if link_map.property not in effective_objects:
                raise FormatError(
                    f"{where}: property {link_map.property!r} is not"
                    f" an effective object property of {entity_type!r}"
                )
            _check_repeat(dataset_id, "link", link_map, seen_maps)

    if not spec.datasets:
        raise FormatError("mapping spec: datasets list is empty")

    types = {entry.id: entry.entity_type for entry in spec.datasets}
    for entry in spec.datasets:
        for link_map in entry.link_maps:
            if link_map.target not in types:
                raise FormatError(
                    f"dataset {entry.id}: link {link_map.property!r} targets"
                    f" unknown dataset {link_map.target!r}"
                )
            prop = etg.effective_object_properties(entry.entity_type)[link_map.property]
            if not etg.descends_from(types[link_map.target], prop.range):
                raise FormatError(
                    f"dataset {entry.id}: link {link_map.property!r} targets"
                    f" {types[link_map.target]!r}, outside range {prop.range!r}"
                )


def _check_repeat(
    dataset_id: str, kind: str, new: DataMap | LinkMap, seen: set[tuple[str, str, str]]
) -> None:
    """A repeated (column, property) map would emit each of its triples twice."""
    key = (kind, new.column, new.property)
    if key in seen:
        raise FormatError(
            f"dataset {dataset_id}: {kind} map from column {new.column!r} onto"
            f" property {new.property!r} given twice"
        )
    seen.add(key)


# ---------------------------------------------------------------------------
# Ingestion


@dataclass(frozen=True)
class TypedRow:
    id: str
    values: tuple[tuple[str, Literal | Iri], ...]
    links: tuple[tuple[str, str, str], ...]  # (property, target dataset, target id)


def read_table(text: str, fmt: str) -> list[dict[str, str]]:
    """Read a raw table from CSV (RFC 4180, header row) or a JSON array.

    The names in a CSV header must be distinct, and each row must have as
    many fields as the header; blank lines are skipped.
    """
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader, None)
            if header is None:
                raise FormatError("CSV table has no header row")
            repeated = [name for name, times in Counter(header).items() if times > 1]
            if repeated:
                raise FormatError(f"CSV table: column {repeated[0]!r} repeated in the header row")
            rows = []
            for number, fields in enumerate(filter(None, reader), start=1):
                if len(fields) != len(header):
                    raise FormatError(
                        f"CSV table row {number}: {len(fields)} fields,"
                        f" but the header has {len(header)}"
                    )
                rows.append(dict(zip(header, fields)))
        except csv.Error as exc:
            raise FormatError(f"CSV table: {exc}") from None
        return rows
    if fmt == "json":
        rows = parse_json(text, "JSON table")
        check(rows, "objects", "JSON table")
        for number, row in enumerate(rows, start=1):
            if not all(type(value) is str for value in row.values()):
                raise FormatError(f"JSON table row {number}: every value must be a string")
        return rows
    raise ValueError(f"unknown table format {fmt!r}")


def _cast(value: str, datatype: str) -> str:
    """The text of the term that the cell *value* gives as *datatype*:
    ``string``, ``integer``, ``date`` or ``iri``, the datatypes an ETG
    declares."""
    if datatype == "string":
        return value
    if datatype == "integer":
        stripped = value.strip()
        if not stripped or not stripped.lstrip("+-").isdigit():
            raise ValueError(f"not an integer: {value!r}")
        return str(int(stripped))
    if datatype == "date":
        stripped = value.strip()
        if len(stripped) == 4 and stripped.isdigit():
            stripped = f"{stripped}-01-01"
        try:
            parsed = date.fromisoformat(stripped)
        except ValueError:
            raise ValueError(f"not a date: {value!r}") from None
        return parsed.isoformat()
    return Iri(value.strip()).value


def _all_misfits(cells: list[str]) -> Sequence[int]:
    return range(len(cells))


_ID_MISFITS = misfits(_IDENTIFIER)
# Datatype -> the misfits among cells that _cast returns unchanged, but for
# a date's year alone, which stands for 1 January; _cast casts each misfit,
# and every cell of a datatype not listed.  The date pattern leaves 29
# February and the year 0000 to _cast.
_CAST_MISFITS = {
    "string": lambda cells: (),
    "integer": misfits(r"0|-?[1-9][0-9]*"),
    "date": misfits(
        r"(?!0000)[0-9]{4}(?:-(?:0[1-9]|1[0-2])-(?:0[1-9]|1[0-9]|2[0-8])"
        r"|-(?:0[13-9]|1[0-2])-(?:29|30)|-(?:0[13578]|1[02])-31)?"
    ),
}


def _row_id(dataset_id: str, cell: str) -> str:
    row_id = cell.strip()
    if not row_id:
        raise ValueError(f"dataset {dataset_id}: row with empty id column")
    return check_identifier(row_id)


def _target_id(cell: str) -> str:
    return check_identifier(cell.strip())


def _without(rows: Sequence[int], items: list, dropped: set[int]) -> tuple[list[int], list]:
    """*rows* and *items*, item by item, less the items of the rows in *dropped*."""
    keep = [*map(not_, map(dropped.__contains__, rows))]
    return [*compress(rows, keep)], [*compress(items, keep)]


@dataclass
class _Columns:
    """One dataset's table, typed a column at a time.

    ``rows`` holds the indices into ``ids`` of the rows that give triples.
    ``values`` holds one ``(property, rows, terms)`` per data map and
    ``links`` one ``(link map, rows, target ids)`` per link map, in map
    order: the term or target id at each place comes from the cell of the
    row at that place in *rows*.
    """

    entry: DatasetMapping
    ids: list[str]
    rows: Sequence[int]
    values: list[tuple[str, Sequence[int], list[Literal | Iri]]]
    links: list[tuple[LinkMap, Sequence[int], list[str]]]
    findings: list[Finding]

    def drop_rows(self, dropped: set[int]) -> None:
        self.rows = [row for row in self.rows if row not in dropped]
        self.values = [(prop, *_without(rows, terms, dropped)) for prop, rows, terms in self.values]
        self.links = [(link, *_without(rows, ids, dropped)) for link, rows, ids in self.links]

    def drop_links(self, dangling: list[tuple[int, int, str]]) -> None:
        for index in {index for _, index, _ in dangling}:
            link_map, rows, targets = self.links[index]
            dropped = {row for row, link, _ in dangling if link == index}
            self.links[index] = (link_map, *_without(rows, targets, dropped))

    def dangling(self, present: Mapping[str, set[str]]) -> list[tuple[int, int, str]]:
        """``(row, link map index, target id)`` of each link to a target
        that *present* lacks, in row and then link map order."""
        found = []
        for index, (link_map, rows, targets) in enumerate(self.links):
            have = present[link_map.target]
            if not have.issuperset(targets):
                missing = compress(zip(rows, targets), map(not_, map(have.__contains__, targets)))
                found += [(row, index, target) for row, target in missing]
        return sorted(found)

    def link_path(self, row: int, index: int) -> str:
        return f"{self.entry.id}/{self.ids[row]}/{self.links[index][0].property}"


def _read_columns(entry: DatasetMapping, table: Sequence[Mapping[str, str]]) -> _Columns:
    """Type *table* per *entry*, one column at a time (see ``ingest_dataset``)."""
    for data_map in entry.data_maps:
        if data_map.datatype not in DATA_DATATYPES:
            raise ValueError(
                f"dataset {entry.id}: property {data_map.property!r} has"
                f" datatype {data_map.datatype!r}, not one of {DATA_DATATYPES}"
            )
    if table and entry.id_column not in table[0]:
        raise ValueError(f"dataset {entry.id}: id column {entry.id_column!r} missing")
    ids = [row.get(entry.id_column) or "" for row in table]
    for index in _ID_MISFITS(ids):  # in row order, so the first bad id raises
        ids[index] = _row_id(entry.id, ids[index])

    findings: list[Finding] = []
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        first = []
        for index, row_id in enumerate(ids):
            if row_id in seen:
                findings.append(finding("IG2", f"{entry.id}/{row_id}", "duplicate row identifier"))
            else:
                seen.add(row_id)
                first.append(index)
        table = [table[index] for index in first]
        ids = [ids[index] for index in first]

    def column(name: str, misfits, cast) -> tuple[Sequence[int], list[str]]:
        """The rows with a cell in column *name*, and those cells cast: the
        *misfits* are given to *cast*, and one it rejects is left out with
        an IG1 warning."""
        cells = [row.get(name) for row in table]
        rows: Sequence[int] = range(len(cells))
        if not all(cells):
            rows, cells = [*compress(rows, cells)], [*compress(cells, cells)]
        misfit = misfits(cells)
        if misfit:
            keep = [True] * len(cells)
            for index in misfit:
                try:
                    cells[index] = cast(cells[index])
                except ValueError as exc:
                    path = f"{entry.id}/{ids[rows[index]]}/{name}"
                    findings.append(finding("IG1", path, str(exc)))
                    keep[index] = False
            rows, cells = [*compress(rows, keep)], [*compress(cells, keep)]
        return rows, cells

    values = []
    for data_map in entry.data_maps:
        datatype = data_map.datatype
        cast_misfits = _CAST_MISFITS.get(datatype, _all_misfits)
        rows, texts = column(data_map.column, cast_misfits, partial(_cast, datatype=datatype))
        if datatype == "date":  # _cast gives ten characters
            texts = [text + "-01-01" if len(text) == 4 else text for text in texts]
        if datatype == "iri":
            values.append((data_map.property, rows, Iri.many(texts)))
        else:
            values.append((data_map.property, rows, Literal.many(texts, [datatype] * len(texts))))
    links = [
        (link_map, *column(link_map.column, _ID_MISFITS, _target_id))
        for link_map in entry.link_maps
    ]
    return _Columns(entry, ids, range(len(ids)), values, links, findings)


def ingest_dataset(
    entry: DatasetMapping, table: Sequence[Mapping[str, str]]
) -> tuple[list[TypedRow], list[Finding]]:
    """Type one raw table per its dataset mapping, whose data maps must
    carry the datatypes an ETG declares (as a checked spec's do): another
    datatype raises ``ValueError`` before any cell is read.

    Cast failures drop the cell with an IG1 warning; duplicate row ids keep
    the first row and yield an IG2 error finding.  An empty or bad row id
    raises ``ValueError`` for the first row that has one.

    Cost: each column is read by one list comprehension, then checked and
    cast in a few C-level passes: one match over the column's cells joined
    by line breaks, then ``map`` and ``compress``.  Python looks at a cell
    on its own only when it fails its column's check, and at each row
    only when ids repeat (IG2).
    """
    columns = _read_columns(entry, table)
    values: list[list[tuple[str, Literal | Iri]]] = [[] for _ in columns.ids]
    links: list[list[tuple[str, str, str]]] = [[] for _ in columns.ids]
    for prop, rows, terms in columns.values:
        for row, term in zip(rows, terms):
            values[row].append((prop, term))
    for link_map, rows, targets in columns.links:
        for row, target in zip(rows, targets):
            links[row].append((link_map.property, link_map.target, target))
    typed = [TypedRow(*row) for row in zip(columns.ids, map(tuple, values), map(tuple, links))]
    return typed, sort_findings(columns.findings)


# ---------------------------------------------------------------------------
# Building


# A ``(subject, predicate, object)`` tuple -> its Triple, in C: what
# ``Triple._make`` does, less the length check.
_TRIPLE = partial(tuple.__new__, Triple)


def _triples(subjects: list[Iri], rows: Sequence[int], predicate: Iri, objects) -> Iterator[Triple]:
    """``Triple(subjects[row], predicate, object)`` for each row of *rows*
    and object of *objects* at the same place, made in C."""
    return map(_TRIPLE, zip(map(subjects.__getitem__, rows), repeat(predicate), objects))


def _missing(target_dataset: str, target_id: str) -> str:
    return f"link target {target_id!r} not found in dataset {target_dataset!r}"


def build_entity_graph(
    schema_graph: SchemaGraph,
    spec: MappingSpec,
    datasets: Mapping[str, Sequence[Mapping[str, str]]],
    base: Iri,
    at: datetime,
) -> tuple[EntityGraph, list[Finding]]:
    """Assemble the entity graph from raw tables.

    Rows of two datasets of one entity type that share an identifier mint
    the same IRI: the row of the dataset listed first in *spec* is kept and
    each later one is dropped with an IG3 error.  A link target is present
    when a row of its dataset or a stub of this build holds it, whatever
    the order of the datasets.  A link to a target that is not present
    follows the owning dataset's dangling policy: ``error`` aborts the build
    at the first such link in dataset, row and link map order; ``skip``
    drops the triple with a warning; ``stub`` creates a typed entity with no
    values and warns once, at the smallest path among the links to it, so
    the findings depend on neither row nor dataset order.

    *spec* is first checked against the ETG of *schema_graph* as
    ``load_mapping_spec`` checks it, so a spec built in code raises the
    ``FormatError`` that the same spec loaded from JSON raises.

    Cost: the tables are typed a column at a time (see ``ingest_dataset``),
    and the IRIs, presence tests and triples are made a column at a time
    too, so Python works per row only on a row or link with a fault.
    """
    _check_spec(spec, schema_graph)
    spec_ids = [entry.id for entry in spec.datasets]
    if set(datasets) != set(spec_ids):
        raise ValueError(
            f"datasets {sorted(datasets)} do not match the mapping spec {sorted(spec_ids)}"
        )

    tables = [_read_columns(entry, datasets[entry.id]) for entry in spec.datasets]
    findings = [item for table in tables for item in table.findings]
    present = {table.entry.id: set(table.ids) for table in tables}

    claimed: dict[str, dict[str, str]] = {}  # entity type -> row id -> dataset of the row kept
    for table in tables:
        dataset = table.entry.id
        owners = claimed.setdefault(table.entry.entity_type, {})
        taken = owners.keys() & present[dataset]
        owners.update(dict.fromkeys(present[dataset] - taken, dataset))
        for row_id in taken:
            message = f"row identifier {row_id!r} already used by dataset {owners[row_id]!r}"
            findings.append(finding("IG3", f"{dataset}/{row_id}", message + "; row dropped"))
        if taken:
            table.drop_rows({row for row, row_id in enumerate(table.ids) if row_id in taken})

    # Stubs first: (dataset, id) stubbed -> the smallest path linking to it.
    stubs: dict[tuple[str, str], str] = {}
    for table in tables:
        if table.entry.dangling_policy == "stub":
            for row, index, target_id in table.dangling(present):
                stub = (table.links[index][0].target, target_id)
                path = table.link_path(row, index)
                if stub not in stubs or path < stubs[stub]:
                    stubs[stub] = path
    for target_dataset, target_id in stubs:
        present[target_dataset].add(target_id)

    for table in tables:  # a stub-policy dataset now finds every target
        dangling = table.dangling(present)
        if dangling and table.entry.dangling_policy == "error":
            row, index, target_id = dangling[0]
            message = _missing(table.links[index][0].target, target_id)
            offender = finding("LK1", table.link_path(row, index), message)
            raise DanglingLinkError(offender.render(), offender)
        for row, index, target_id in dangling:
            message = _missing(table.links[index][0].target, target_id) + "; link dropped"
            findings.append(finding("LK2", table.link_path(row, index), message))
        table.drop_links(dangling)

    predicate_type = type_predicate(base)
    type_terms = {name: type_iri(base, name) for name in claimed}
    prefixes = {name: mint_iri(base, [name]).value + "/" for name in claimed}
    predicates = {
        name: property_predicate(base, name)
        for name in {
            m.property for entry in spec.datasets for m in (*entry.data_maps, *entry.link_maps)
        }
    }
    type_by_dataset = {entry.id: entry.entity_type for entry in spec.datasets}
    subjects = {
        table.entry.id: Iri.many([*map(prefixes[table.entry.entity_type].__add__, table.ids)])
        for table in tables
    }
    # Dataset -> id -> IRI, for each id present: a row's IRI serves its own
    # triples and each link to it.
    iris = {table.entry.id: dict(zip(table.ids, subjects[table.entry.id])) for table in tables}
    triples: list[Triple] = []
    for (target_dataset, target_id), path in stubs.items():
        message = _missing(target_dataset, target_id) + "; stub created"
        findings.append(finding("LK3", path, message))
        entity_type = type_by_dataset[target_dataset]
        stub = iris[target_dataset][target_id] = Iri(prefixes[entity_type] + target_id)
        if target_id not in claimed[entity_type]:  # else a row or a stub typed its IRI
            claimed[entity_type][target_id] = target_dataset
            triples.append(Triple(stub, predicate_type, type_terms[entity_type]))
    for table in tables:
        row_iris = subjects[table.entry.id]
        type_term = type_terms[table.entry.entity_type]
        triples += _triples(row_iris, table.rows, predicate_type, repeat(type_term))
        for prop, rows, terms in table.values:
            triples += _triples(row_iris, rows, predicates[prop], terms)
        for link_map, rows, targets in table.links:
            objects = map(iris[link_map.target].__getitem__, targets)
            triples += _triples(row_iris, rows, predicates[link_map.property], objects)
    if any(entry.shares_property for entry in spec.datasets):
        triples = [*dict.fromkeys(triples)]  # two of a row's columns may give one triple

    object_kinds = {("type", "iri")}
    for entry in spec.datasets:
        object_kinds.update((m.property, m.datatype) for m in entry.data_maps)
        object_kinds.update((m.property, "iri") for m in entry.link_maps)
    graph = EntityGraph(
        iri=mint_iri(base, ["eg", timestamp_identifier(at)]),
        timestamp=at,
        sources=tuple(spec_ids),
        triples=canonical_order(triples, object_kinds),
    )
    return graph, sort_findings(findings)


def canonical_order(
    triples: list[Triple], object_kinds: set[tuple[str, str]]
) -> tuple[Triple, ...]:
    """*triples* in canonical order, the order of ``Triple.sort_key``.

    *object_kinds* holds a ``(name, kind)`` pair for each kind of object
    that the predicate ``<base>/prop/<name>`` carries in *triples*: ``iri``
    or a literal datatype.  When no predicate carries two kinds, the
    triples' own tuple order is canonical order, since IRIs compare by value
    and literals of one datatype by text, so they are sorted without a key
    function.
    """
    if len({name for name, _ in object_kinds}) == len(object_kinds):
        return tuple(sorted(triples))
    return tuple(sorted(triples, key=Triple.sort_key))


# ---------------------------------------------------------------------------
# Snapshots


@dataclass(frozen=True)
class Snapshot:
    directory: Path
    manifest: dict


def snapshot(eg: EntityGraph, out_dir: str | Path, force: bool = False) -> Snapshot:
    """Write a temporally-boxed export of *eg* into *out_dir*.

    Produces ``eg-<timestamp>.nt``, ``eg-<timestamp>.json`` and a
    ``manifest.json`` with SHA-256 digests over the exact bytes written.
    Re-running on the same graph reproduces identical files; existing files
    are an error unless *force* is set.
    """
    from . import exports  # deferred: exports renders EntityGraph values

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = timestamp_identifier(eg.timestamp)
    files = {
        f"eg-{stamp}.nt": exports.export_ntriples(eg),
        f"eg-{stamp}.json": exports.export_jsongraph(eg),
    }

    for name in (*files, "manifest.json"):
        if not force and (out_dir / name).exists():
            raise ValueError(f"snapshot target {out_dir / name} already exists")

    manifest = {
        "eg_iri": eg.iri.value,
        "timestamp": format_timestamp(eg.timestamp),
        "files": [
            {"name": name, "sha256": hashlib.sha256(data).hexdigest()}
            for name, data in sorted(files.items())
        ],
    }
    for name, data in files.items():
        (out_dir / name).write_bytes(data)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=True, indent=2) + "\n", encoding="utf-8"
    )
    return Snapshot(out_dir, manifest)
