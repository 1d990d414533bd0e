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
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import Mapping, Sequence

from .core import (
    Finding,
    FormatError,
    Iri,
    finding,
    format_timestamp,
    mint_iri,
    sort_findings,
    timestamp_identifier,
    validate_identifier,
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


@dataclass(frozen=True)
class Literal:
    text: str
    datatype: str

    def __post_init__(self) -> None:
        if self.datatype not in LITERAL_DATATYPES:
            raise ValueError(f"literal datatype must be one of {LITERAL_DATATYPES}")


@dataclass(frozen=True)
class Triple:
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
    id: str
    entity_type: str
    id_column: str
    data_maps: tuple[DataMap, ...] = ()
    link_maps: tuple[LinkMap, ...] = ()
    dangling_policy: str = "error"


@dataclass(frozen=True)
class MappingSpec:
    datasets: tuple[DatasetMapping, ...]

    def dataset(self, dataset_id: str) -> DatasetMapping:
        for entry in self.datasets:
            if entry.id == dataset_id:
                return entry
        raise ValueError(f"mapping spec has no dataset {dataset_id!r}")


_SPEC_KEYS = {"datasets"}
_DATASET_KEYS = {"id", "type", "id_column", "data_maps", "link_maps", "dangling_policy"}
_DATA_MAP_KEYS = {"column", "property", "datatype"}
_LINK_MAP_KEYS = {"column", "property", "target"}


def load_mapping_spec(document: str | bytes, schema_graph: SchemaGraph) -> MappingSpec:
    """Load a mapping spec and validate it against the grounded schema."""
    try:
        return _load_mapping_spec(document, schema_graph)
    except KeyError as exc:
        raise FormatError(f"mapping spec: missing key {exc}") from None
    except TypeError as exc:
        raise FormatError(f"mapping spec: malformed document ({exc})") from None


def _load_mapping_spec(document: str | bytes, schema_graph: SchemaGraph) -> MappingSpec:
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"mapping spec: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise FormatError("mapping spec: top level must be a JSON object")
    unknown = sorted(set(data) - _SPEC_KEYS)
    if unknown:
        raise FormatError(f"mapping spec: unknown keys {unknown}")

    etg = schema_graph.etg
    type_index = etg.type_index()

    entries: list[DatasetMapping] = []
    seen_ids: set[str] = set()
    for raw in data.get("datasets", []):
        bad = sorted(set(raw) - _DATASET_KEYS)
        if bad:
            raise FormatError(f"mapping spec: unknown dataset keys {bad}")
        dataset_id = validate_identifier(raw["id"]).value
        if dataset_id in seen_ids:
            raise FormatError(f"mapping spec: duplicate dataset {dataset_id!r}")
        seen_ids.add(dataset_id)
        entity_type = raw["type"]
        if entity_type not in type_index:
            raise FormatError(
                f"dataset {dataset_id}: unknown entity type {entity_type!r}"
            )
        policy = raw.get("dangling_policy", "error")
        if policy not in DANGLING_POLICIES:
            raise FormatError(f"dataset {dataset_id}: unknown dangling policy {policy!r}")

        effective_data = etg.effective_data_properties(entity_type)
        data_maps: list[DataMap] = []
        for map_raw in raw.get("data_maps", []):
            bad = sorted(set(map_raw) - _DATA_MAP_KEYS)
            if bad:
                raise FormatError(f"dataset {dataset_id}: unknown data map keys {bad}")
            data_map = DataMap(map_raw["column"], map_raw["property"], map_raw["datatype"])
            prop = effective_data.get(data_map.property)
            if prop is None:
                raise FormatError(
                    f"dataset {dataset_id}: property {data_map.property!r} is not"
                    f" an effective data property of {entity_type!r}"
                )
            if prop.datatype != data_map.datatype:
                raise FormatError(
                    f"dataset {dataset_id}: property {data_map.property!r} is"
                    f" declared {prop.datatype!r}, not {data_map.datatype!r}"
                )
            data_maps.append(data_map)

        effective_objects = etg.effective_object_properties(entity_type)
        link_maps: list[LinkMap] = []
        for map_raw in raw.get("link_maps", []):
            bad = sorted(set(map_raw) - _LINK_MAP_KEYS)
            if bad:
                raise FormatError(f"dataset {dataset_id}: unknown link map keys {bad}")
            link_map = LinkMap(map_raw["column"], map_raw["property"], map_raw["target"])
            if link_map.property not in effective_objects:
                raise FormatError(
                    f"dataset {dataset_id}: property {link_map.property!r} is not"
                    f" an effective object property of {entity_type!r}"
                )
            link_maps.append(link_map)

        entries.append(
            DatasetMapping(
                dataset_id,
                entity_type,
                raw["id_column"],
                tuple(data_maps),
                tuple(link_maps),
                policy,
            )
        )

    if not entries:
        raise FormatError("mapping spec: datasets list is empty")

    spec = MappingSpec(tuple(entries))
    for entry in spec.datasets:
        for link_map in entry.link_maps:
            target = spec.dataset(link_map.target)  # raises on unknown dataset
            prop = etg.effective_object_properties(entry.entity_type)[link_map.property]
            if not etg.descends_from(target.entity_type, prop.range):
                raise FormatError(
                    f"dataset {entry.id}: link {link_map.property!r} targets"
                    f" {target.entity_type!r}, outside range {prop.range!r}"
                )
    return spec


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
        if reader.fieldnames is None:
            raise ValueError("CSV table has no header row")
        return [dict(row) for row in reader]
    if fmt == "json":
        data = json.loads(text)
        if not isinstance(data, list):
            raise FormatError("JSON table must be an array of flat objects")
        return [{str(k): str(v) for k, v in row.items()} for row in data]
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
        validate_identifier(row_id)
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
                validate_identifier(target_id)
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
    entity with no values and warns.  Rows of two datasets of one entity type
    that share an identifier mint the same IRI: the row of the dataset listed
    first in *spec* is kept and each later one is dropped with an IG3 error.
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

    owners: dict[str, str] = {}  # entity IRI -> dataset whose row minted it
    stubs: dict[str, tuple[Iri, str]] = {}
    triples: list[Triple] = []
    for entry in spec.datasets:
        for row in ingested[entry.id]:
            subject = mint_iri(base, [entry.entity_type, row.id])
            owner = owners.setdefault(subject.value, entry.id)
            if owner != entry.id:
                message = f"row identifier {row.id!r} already used by dataset {owner!r}"
                findings.append(finding("IG3", f"{entry.id}/{row.id}", message + "; row dropped"))
                continue
            triples.append(Triple(subject, predicate_type, type_terms[entry.entity_type]))
            for prop, value in row.values:
                triples.append(Triple(subject, predicates[prop], value))
            for prop, target_dataset, target_id in row.links:
                target_type = type_by_dataset[target_dataset]
                target = mint_iri(base, [target_type, target_id])
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
                    findings.append(finding("LK3", path, message + "; stub created"))
                    stubs[target.value] = (target, target_type)
                    ids_by_dataset[target_dataset].add(target_id)
                triples.append(Triple(subject, predicates[prop], target))

    # A row of another dataset of the stub's type may have minted its IRI.
    for key, (stub, stub_type) in stubs.items():
        if key not in owners:
            triples.append(Triple(stub, predicate_type, type_terms[stub_type]))

    graph = EntityGraph(
        iri=mint_iri(base, ["eg", timestamp_identifier(at)]),
        timestamp=at,
        sources=tuple(spec_ids),
        triples=tuple(sorted(triples, key=Triple.sort_key)),
    )
    return graph, sort_findings(findings)


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
