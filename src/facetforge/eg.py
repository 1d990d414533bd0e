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
from dataclasses import dataclass, field
from datetime import date, datetime
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .core import (
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
    parse_json,
    sort_findings,
    timestamp_identifier,
)
from .etg import SchemaGraph

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


class Literal(_LiteralFields):
    """A typed literal; a validated named tuple like ``core.Iri``: it equals,
    and hashes like, the plain ``(text, datatype)`` tuple."""

    __slots__ = ()

    def __new__(cls, text: str, datatype: str) -> Literal:
        if datatype not in LITERAL_DATATYPES:
            raise ValueError(f"literal datatype must be one of {LITERAL_DATATYPES}")
        return tuple.__new__(cls, (text, datatype))

    @classmethod
    def _make(cls, iterable) -> Literal:
        return cls(*iterable)

    @classmethod
    def many(cls, texts: Sequence[str], datatypes: Sequence[str]) -> list[Literal]:
        """``[Literal(t, d) for t, d in zip(texts, datatypes)]``, checked in
        one pass; if any datatype is bad, each is made in turn, so the first
        bad one raises what ``Literal`` raises for it."""
        if all(map(LITERAL_DATATYPES.__contains__, datatypes)):
            return [*map(tuple.__new__, repeat(cls), zip(texts, datatypes))]
        return [*map(cls, texts, datatypes)]

    def __reduce__(self) -> tuple:
        return type(self), tuple(self)


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

    Each entity is the subject of exactly one ``<base>/prop/type`` triple;
    its values and links are the other triples with that subject.
    """

    iri: Iri
    timestamp: datetime
    sources: tuple[str, ...]
    triples: tuple[Triple, ...]

    @property
    def entities(self) -> tuple[Entity, ...]:
        """The typed subjects, in IRI order, derived from the triples on each access."""
        predicate = type_predicate(derive_base(self.iri)).value
        types = {
            t.subject.value: Entity(t.subject, t.object.value.rsplit("/", 1)[1])
            for t in self.triples
            if t.predicate.value == predicate
        }
        return tuple(types[key] for key in sorted(types))

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
    """Load a mapping spec and validate it against the grounded schema."""
    (datasets_raw,) = _SPEC.read(parse_json(document, "mapping spec"), "mapping spec")
    etg = schema_graph.etg
    type_index = etg.type_index()

    entries: list[DatasetMapping] = []
    seen_ids: set[str] = set()
    for raw in datasets_raw:
        dataset_id, entity_type, id_column, data_raw, links_raw, policy = _DATASET.read(
            raw, "mapping spec dataset"
        )
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
        data_maps: list[DataMap] = []
        for map_raw in data_raw:
            data_map = DataMap(*_DATA_MAP.read(map_raw, f"{where} data map"))
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
            data_maps.append(data_map)

        effective_objects = etg.effective_object_properties(entity_type)
        link_maps: list[LinkMap] = []
        for map_raw in links_raw:
            link_map = LinkMap(*_LINK_MAP.read(map_raw, f"{where} link map"))
            if link_map.property not in effective_objects:
                raise FormatError(
                    f"{where}: property {link_map.property!r} is not"
                    f" an effective object property of {entity_type!r}"
                )
            _check_repeat(dataset_id, "link", link_map, seen_maps)
            link_maps.append(link_map)

        entries.append(
            DatasetMapping(
                dataset_id, entity_type, id_column, tuple(data_maps), tuple(link_maps), policy
            )
        )

    if not entries:
        raise FormatError("mapping spec: datasets list is empty")

    types = {entry.id: entry.entity_type for entry in entries}
    for entry in entries:
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
    return MappingSpec(tuple(entries))


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
    """Read a raw table from CSV (RFC 4180, header row) or a JSON array."""
    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(text))
        try:
            rows = [dict(row) for row in reader]
        except csv.Error as exc:
            raise FormatError(f"CSV table: {exc}") from None
        if reader.fieldnames is None:
            raise FormatError("CSV table has no header row")
        return rows
    if fmt == "json":
        rows = parse_json(text, "JSON table")
        check(rows, "objects", "JSON table")
        for number, row in enumerate(rows, start=1):
            if not all(type(value) is str for value in row.values()):
                raise FormatError(f"JSON table row {number}: every value must be a string")
        return rows
    raise ValueError(f"unknown table format {fmt!r}")


def _cast(value: str, datatype: str) -> Literal | Iri:
    if datatype == "string":
        return Literal(value, "string")
    if datatype == "integer":
        stripped = value.strip()
        if not stripped or not stripped.lstrip("+-").isdigit():
            raise ValueError(f"not an integer: {value!r}")
        return Literal(str(int(stripped)), "integer")
    if datatype == "date":
        stripped = value.strip()
        if len(stripped) == 4 and stripped.isdigit():
            stripped = f"{stripped}-01-01"
        try:
            parsed = date.fromisoformat(stripped)
        except ValueError:
            raise ValueError(f"not a date: {value!r}") from None
        return Literal(parsed.isoformat(), "date")
    if datatype == "iri":
        return Iri(value.strip())
    raise ValueError(f"unknown datatype {datatype!r}")


def ingest_dataset(
    entry: DatasetMapping, table: Sequence[Mapping[str, str]]
) -> tuple[list[TypedRow], list[Finding]]:
    """Type one raw table per its dataset mapping.

    Cast failures drop the cell with an IG1 warning; duplicate row ids keep
    the first row and yield an IG2 error finding.
    """
    if table and entry.id_column not in table[0]:
        raise ValueError(f"dataset {entry.id}: id column {entry.id_column!r} missing")

    rows: list[TypedRow] = []
    findings: list[Finding] = []
    seen: set[str] = set()
    for raw in table:
        row_id = (raw.get(entry.id_column) or "").strip()
        if not row_id:
            raise ValueError(f"dataset {entry.id}: row with empty id column")
        check_identifier(row_id)
        if row_id in seen:
            findings.append(
                finding("IG2", f"{entry.id}/{row_id}", "duplicate row identifier")
            )
            continue
        seen.add(row_id)

        values: list[tuple[str, Literal | Iri]] = []
        for data_map in entry.data_maps:
            cell = raw.get(data_map.column)
            if cell is None or cell == "":
                continue
            try:
                values.append((data_map.property, _cast(cell, data_map.datatype)))
            except ValueError as exc:
                findings.append(
                    finding("IG1", f"{entry.id}/{row_id}/{data_map.column}", str(exc))
                )

        links: list[tuple[str, str, str]] = []
        for link_map in entry.link_maps:
            cell = raw.get(link_map.column)
            if cell is None or cell == "":
                continue
            target_id = cell.strip()
            try:
                check_identifier(target_id)
            except ValueError as exc:
                findings.append(
                    finding("IG1", f"{entry.id}/{row_id}/{link_map.column}", str(exc))
                )
                continue
            links.append((link_map.property, link_map.target, target_id))

        rows.append(TypedRow(row_id, tuple(values), tuple(links)))
    return rows, sort_findings(findings)


# ---------------------------------------------------------------------------
# Building


def build_entity_graph(
    schema_graph: SchemaGraph,
    spec: MappingSpec,
    datasets: Mapping[str, Sequence[Mapping[str, str]]],
    base: Iri,
    at: datetime,
) -> tuple[EntityGraph, list[Finding]]:
    """Assemble the entity graph from raw tables.

    Dangling links follow the owning dataset's policy: ``error`` aborts the
    build, ``skip`` drops the triple with a warning, ``stub`` creates a typed
    entity with no values and warns once, at the smallest path that links to
    it, so the findings do not depend on row order.  Rows of two datasets of
    one entity type that share an identifier mint the same IRI: the row of
    the dataset listed first in *spec* is kept and each later one is dropped
    with an IG3 error.
    """
    spec_ids = [entry.id for entry in spec.datasets]
    if set(datasets) != set(spec_ids):
        raise ValueError(
            f"datasets {sorted(datasets)} do not match the mapping spec {sorted(spec_ids)}"
        )

    findings: list[Finding] = []
    ingested: dict[str, list[TypedRow]] = {}
    for entry in spec.datasets:
        rows, row_findings = ingest_dataset(entry, datasets[entry.id])
        ingested[entry.id] = rows
        findings.extend(row_findings)

    ids_by_dataset = {ds: {row.id for row in rows} for ds, rows in ingested.items()}
    type_by_dataset = {entry.id: entry.entity_type for entry in spec.datasets}
    predicate_type = type_predicate(base)
    type_terms = {name: type_iri(base, name) for name in set(type_by_dataset.values())}
    predicates = {
        name: property_predicate(base, name)
        for name in {
            m.property for entry in spec.datasets for m in (*entry.data_maps, *entry.link_maps)
        }
    }

    # The term table of this build: each entity IRI is built once, under its
    # type's prefix, and shared by its row's triples and every link to it.
    entity_iris = {name: _entity_iris(base, name) for name in type_terms}
    iris_by_dataset = {ds: entity_iris[entity_type] for ds, entity_type in type_by_dataset.items()}

    owners: dict[str, str] = {}  # entity IRI -> dataset whose row minted it
    # Each (dataset, id) stubbed -> the path and message of its one LK3
    # finding: the smallest path among the links to it, whatever the row order.
    stubs: dict[tuple[str, str], tuple[str, str]] = {}
    triples: list[Triple] = []
    for entry in spec.datasets:
        iris = iris_by_dataset[entry.id]
        for row in ingested[entry.id]:
            subject = iris[row.id]
            owner = owners.setdefault(subject.value, entry.id)
            if owner != entry.id:
                message = f"row identifier {row.id!r} already used by dataset {owner!r}"
                findings.append(finding("IG3", f"{entry.id}/{row.id}", message + "; row dropped"))
                continue
            first = len(triples)
            triples.append(Triple(subject, predicate_type, type_terms[entry.entity_type]))
            for prop, value in row.values:
                triples.append(Triple(subject, predicates[prop], value))
            for prop, target_dataset, target_id in row.links:
                target = iris_by_dataset[target_dataset][target_id]
                if target_id not in ids_by_dataset[target_dataset]:
                    path = f"{entry.id}/{row.id}/{prop}"
                    message = (
                        f"link target {target_id!r} not found in dataset"
                        f" {target_dataset!r}"
                    )
                    if entry.dangling_policy == "error":
                        offender = finding("LK1", path, message)
                        raise DanglingLinkError(offender.render(), offender)
                    if entry.dangling_policy == "skip":
                        findings.append(finding("LK2", path, message + "; link dropped"))
                        continue
                    stub = (target_dataset, target_id)
                    if stub not in stubs or path < stubs[stub][0]:
                        stubs[stub] = (path, message)
                triples.append(Triple(subject, predicates[prop], target))
            if entry.shares_property:  # two of its columns may give one triple
                triples[first:] = dict.fromkeys(triples[first:])
        # The datasets after this one find its stubs present.
        for target_dataset, target_id in stubs:
            ids_by_dataset[target_dataset].add(target_id)

    for (target_dataset, target_id), (path, message) in stubs.items():
        findings.append(finding("LK3", path, message + "; stub created"))
        stub = iris_by_dataset[target_dataset][target_id]
        # A row of another dataset of the stub's type, or a stub of such a
        # dataset, may have minted its IRI.
        if stub.value not in owners:
            owners[stub.value] = target_dataset
            triples.append(
                Triple(stub, predicate_type, type_terms[type_by_dataset[target_dataset]])
            )

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


def _entity_iris(base: Iri, entity_type: str) -> TermTable:
    """Entity id -> ``<base>/<type>/<id>``.  The type is checked once, with
    its prefix; ingest has checked each id."""
    prefix = mint_iri(base, [entity_type]).value + "/"
    return TermTable(lambda entity_id: Iri(prefix + entity_id))


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
