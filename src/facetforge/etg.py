"""Entity type graphs (ETGs), their repository, quality lint, and grounding.

An ETG is a single-rooted type hierarchy carrying data properties (entity
descriptions) and object properties (entity interrelations).  ``lint_etg``
recasts the schedule rules on the hierarchy and adds the property rules
EP1-EP3; ``repo_add`` refuses ETGs with lint errors, and ``ground`` maps a
lightweight ontology onto a lint-clean ETG.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from operator import attrgetter
from datetime import datetime, timezone
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .core import (
    Fields,
    Finding,
    FormatError,
    Identifier,
    Label,
    Provenance,
    TermTable,
    finding,
    format_timestamp,
    has_errors,
    parent_cycles,
    parse_json,
    parse_timestamp,
    shared_label_findings,
    sort_findings,
    stopword_findings,
    validate_identifier,
)
from .ontology import LightweightOntology

__all__ = [
    "DataProperty",
    "EffectiveProperties",
    "EntityType",
    "EntityTypeGraph",
    "EtgLintConfig",
    "EtgRepository",
    "LintGateError",
    "ObjectProperty",
    "RepoEntry",
    "SchemaGraph",
    "etg_to_json",
    "ground",
    "lint_etg",
    "load_etg",
    "open_repository",
    "repo_add",
    "repo_find",
]

DATA_DATATYPES = ("string", "integer", "date", "iri")

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


class LintGateError(ValueError):
    """Raised when an operation refuses an ETG because of lint errors."""

    def __init__(self, message: str, findings: Sequence[Finding]):
        super().__init__(message)
        self.findings = list(findings)


@dataclass(frozen=True)
class DataProperty:
    name: str
    domain: str
    datatype: str
    identifying: bool = False

    def __post_init__(self) -> None:
        if self.datatype not in DATA_DATATYPES:
            raise ValueError(f"data property {self.name}: bad datatype {self.datatype!r}")


@dataclass(frozen=True)
class ObjectProperty:
    name: str
    domain: str
    range: str


@dataclass(frozen=True)
class EntityType:
    id: str
    label: Label
    parent: str | None = None
    differentiating: tuple[str, ...] = ()


@dataclass(frozen=True)
class EntityTypeGraph:
    """A type hierarchy with its properties, indexed once when built.

    ``_types`` maps each type id to its first declaration; ``_data_by_domain``
    and ``_objects_by_domain`` map each type id to the properties declared on
    it, in stored order.  The index takes no part in ``==``, ``hash`` or
    ``repr``.
    """

    id: str
    types: tuple[EntityType, ...]
    data_properties: tuple[DataProperty, ...] = ()
    object_properties: tuple[ObjectProperty, ...] = ()
    provenance: Provenance = Provenance(Identifier("unspecified"), EPOCH)
    _types: dict[str, EntityType] = field(init=False, repr=False, compare=False)
    _data_by_domain: dict[str, list[DataProperty]] = field(
        init=False, repr=False, compare=False
    )
    _objects_by_domain: dict[str, list[ObjectProperty]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        types: dict[str, EntityType] = {}
        for entity_type in self.types:
            types.setdefault(entity_type.id, entity_type)
        object.__setattr__(self, "_types", types)
        object.__setattr__(self, "_data_by_domain", _by_domain(self.data_properties))
        object.__setattr__(self, "_objects_by_domain", _by_domain(self.object_properties))

    def type_index(self) -> Mapping[str, EntityType]:
        """Each type id to its first declaration (a read-only view)."""
        return MappingProxyType(self._types)

    def chain(self, type_id: str) -> list[EntityType]:
        """The type itself followed by its ancestors up to the root."""
        index = self._types
        if type_id not in index:
            raise ValueError(f"ETG {self.id}: unknown type {type_id!r}")
        chain = [index[type_id]]
        seen = {type_id}
        while chain[-1].parent is not None:
            parent = chain[-1].parent
            if parent not in index or parent in seen:
                raise ValueError(f"ETG {self.id}: broken parent chain at {chain[-1].id!r}")
            seen.add(parent)
            chain.append(index[parent])
        return chain

    def effective_data_properties(self, type_id: str) -> dict[str, DataProperty]:
        """Own and inherited data properties; nearest declaration wins."""
        return self._effective(type_id, self._data_by_domain)

    def effective_object_properties(self, type_id: str) -> dict[str, ObjectProperty]:
        return self._effective(type_id, self._objects_by_domain)

    def _effective(self, type_id: str, by_domain: Mapping[str, list]) -> dict:
        properties: dict = {}
        for entity_type in self.chain(type_id):
            for prop in by_domain.get(entity_type.id, ()):
                properties.setdefault(prop.name, prop)
        return properties

    def descends_from(self, type_id: str, ancestor_id: str) -> bool:
        return any(t.id == ancestor_id for t in self.chain(type_id))


def _by_domain(properties: Sequence) -> dict[str, list]:
    grouped: dict[str, list] = {}
    for prop in properties:
        grouped.setdefault(prop.domain, []).append(prop)
    return grouped


# ---------------------------------------------------------------------------
# Loading and serialization


_ETG = Fields(
    ("id", "identifier"), ("types", "objects", ()), ("data_properties", "objects", ()),
    ("object_properties", "objects", ()), ("provenance", "object", None),
)
_TYPE = Fields(
    ("id", "identifier"), ("label", "label"), ("parent", "string", None),
    ("differentiating", "strings", ()),
)
_DATA = Fields(
    ("name", "identifier"), ("domain", "string"), ("datatype", "string"),
    ("identifying", "bool", False),
)
_OBJECT = Fields(("name", "identifier"), ("domain", "string"), ("range", "string"))
_PROVENANCE = Fields(("source_id", "identifier"), ("timestamp", "string"))


def load_etg(document: str | bytes) -> EntityTypeGraph:
    """Load an ETG from its JSON file format and resolve all references."""
    etg_id, types_raw, data_raw, objects_raw, provenance_raw = _ETG.read(
        parse_json(document, "ETG"), "ETG"
    )
    types: list[EntityType] = []
    seen: set[str] = set()
    for raw in types_raw:
        type_id, label, parent, differentiating = _TYPE.read(raw, "ETG type")
        if type_id in seen:
            raise FormatError(f"ETG: duplicate type id {type_id!r}")
        seen.add(type_id)
        types.append(EntityType(type_id, Label(label), parent, tuple(differentiating)))
    for entity_type in types:
        if entity_type.parent is not None and entity_type.parent not in seen:
            raise FormatError(
                f"ETG: type {entity_type.id} has dangling parent {entity_type.parent!r}"
            )

    data_properties: list[DataProperty] = []
    for raw in data_raw:
        name, domain, datatype, identifying = _DATA.read(raw, "ETG data property")
        if name == "type":
            raise FormatError("ETG: property name 'type' is reserved")
        if datatype not in DATA_DATATYPES:
            raise FormatError(f"ETG: data property {name} has bad datatype {datatype!r}")
        if domain not in seen:
            raise FormatError(f"ETG: data property {name} domain {domain!r} undefined")
        data_properties.append(DataProperty(name, domain, datatype, identifying))

    object_properties: list[ObjectProperty] = []
    for raw in objects_raw:
        prop = ObjectProperty(*_OBJECT.read(raw, "ETG object property"))
        if prop.name == "type":
            raise FormatError("ETG: property name 'type' is reserved")
        for endpoint, kind in ((prop.domain, "domain"), (prop.range, "range")):
            if endpoint not in seen:
                raise FormatError(
                    f"ETG: object property {prop.name} {kind} {endpoint!r} undefined"
                )
        object_properties.append(prop)

    declared: set[tuple[str, str]] = set()
    for name, domain in [(p.name, p.domain) for p in data_properties] + [
        (p.name, p.domain) for p in object_properties
    ]:
        if (domain, name) in declared:
            raise FormatError(f"ETG: property {name!r} declared twice on {domain!r}")
        declared.add((domain, name))

    provenance = Provenance(Identifier(etg_id), EPOCH)
    if provenance_raw is not None:
        source_id, timestamp = _PROVENANCE.read(provenance_raw, "ETG provenance")
        try:
            at = parse_timestamp(timestamp)
        except ValueError as exc:
            raise FormatError(f"ETG provenance: {exc}") from None
        provenance = Provenance(Identifier(source_id), at)

    roots = [t.id for t in types if t.parent is None]
    if types and len(roots) != 1:
        raise FormatError(f"ETG {etg_id}: expected exactly one root, found {sorted(roots)}")
    etg = EntityTypeGraph(
        etg_id, tuple(types), tuple(data_properties), tuple(object_properties), provenance
    )
    for last, _ in parent_cycles(etg._types, attrgetter("parent")):
        raise FormatError(f"ETG {etg_id}: broken parent chain at {last!r}")
    return etg


def etg_to_json(etg: EntityTypeGraph) -> str:
    payload = {
        "id": etg.id,
        "types": [
            {
                "id": t.id,
                "label": t.label.text,
                **({"parent": t.parent} if t.parent is not None else {}),
                "differentiating": list(t.differentiating),
            }
            for t in etg.types
        ],
        "data_properties": [
            {
                "name": p.name,
                "domain": p.domain,
                "datatype": p.datatype,
                "identifying": p.identifying,
            }
            for p in etg.data_properties
        ],
        "object_properties": [
            {"name": p.name, "domain": p.domain, "range": p.range}
            for p in etg.object_properties
        ],
        "provenance": {
            "source_id": etg.provenance.source_id.value,
            "timestamp": format_timestamp(etg.provenance.timestamp),
        },
    }
    return json.dumps(payload, ensure_ascii=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Linting


@dataclass(frozen=True)
class EtgLintConfig:
    enabled: frozenset[str] | None = None
    stoplist: frozenset[str] = frozenset()

    def rule_enabled(self, code: str) -> bool:
        return self.enabled is None or code in self.enabled


class _Chain(NamedTuple):
    """What the lint rules read of a type whose parent chain is whole."""

    labels: int  # equal for two types exactly when their label paths are
    identified: bool  # an identifying data property on the type or an ancestor
    inherited: frozenset[str]  # items of the type's declarations an ancestor also has
    redeclared: frozenset[str]  # names of the type's properties declared twice on its chain


def _chains(etg: EntityTypeGraph) -> dict[str | None, _Chain]:
    """The chain of each type, from one depth-first walk down from the roots.

    The walk counts the differentiating items and property names declared
    above the type it enters, so a type costs the length of its own lists
    whatever its depth.  A type on a parent cycle or below a dangling parent
    is never entered and has no chain.
    """
    below: dict[str | None, list[EntityType]] = {}
    for entity_type in etg._types.values():
        below.setdefault(entity_type.parent, []).append(entity_type)
    items: dict[str, set[str]] = {}
    for entity_type in etg.types:
        items.setdefault(entity_type.id, set()).update(entity_type.differentiating)
    items_above: Counter[str] = Counter()
    names_above: Counter[str] = Counter()
    label_paths: dict[tuple[int, str], int] = {}
    chains: dict[str | None, _Chain] = {None: _Chain(-1, False, frozenset(), frozenset())}
    stack = [(True, root) for root in below.get(None, ())]
    while stack:
        entering, entity_type = stack.pop()
        data = etg._data_by_domain.get(entity_type.id, ())
        names = [p.name for p in (*data, *etg._objects_by_domain.get(entity_type.id, ()))]
        if not entering:
            items_above.subtract(entity_type.differentiating)
            names_above.subtract(names)
            continue
        above = chains[entity_type.parent]  # the entry under None stands above the roots
        label_path = (above.labels, entity_type.label.text.strip().lower())
        counts = Counter(names)
        chains[entity_type.id] = _Chain(
            label_paths.setdefault(label_path, len(label_paths)),
            above.identified or any(p.identifying for p in data),
            frozenset(item for item in items[entity_type.id] if items_above[item]),
            frozenset(name for name in counts if counts[name] > 1 or names_above[name]),
        )
        items_above.update(entity_type.differentiating)
        names_above.update(names)
        stack.append((False, entity_type))
        stack.extend((True, child) for child in below.get(entity_type.id, ()))
    return chains


def lint_etg(etg: EntityTypeGraph, config: EtgLintConfig | None = None) -> list[Finding]:
    """Apply the hierarchy rules and the property rules EP1-EP3 to *etg*."""
    config = config or EtgLintConfig()
    findings: list[Finding] = []
    index = etg.type_index()
    chains = _chains(etg)

    if config.rule_enabled("NP1"):
        for type_id, count in Counter(t.id for t in etg.types).items():
            if count > 1:
                findings.append(
                    finding("NP1", f"types/{type_id}", f"type id declared {count} times")
                )

    if config.rule_enabled("IC4"):
        members = ((t.parent, t.id, t.label.text) for t in etg.types)
        findings.extend(shared_label_findings("IC4", "types", members))

    if config.rule_enabled("NP2"):
        first: dict[int, EntityType] = {}
        for entity_type in etg.types:
            chain = chains.get(entity_type.id)
            if chain is None:
                continue
            other = first.setdefault(chain.labels, entity_type)
            if other.parent != entity_type.parent:
                labels = [t.label.text.strip().lower() for t in etg.chain(entity_type.id)]
                message = f"label path {'/'.join(reversed(labels))} also names {other.id!r}"
                findings.append(finding("NP2", f"types/{entity_type.id}", message))

    if config.rule_enabled("CH1"):
        message = "type adds no differentiating item beyond its ancestors"
        for entity_type in etg.types:
            if entity_type.parent is None:
                continue
            chain = chains.get(entity_type.id)
            inherited = frozenset() if chain is None else chain.inherited
            if set(entity_type.differentiating) <= inherited:
                findings.append(finding("CH1", f"types/{entity_type.id}", message))

    if config.rule_enabled("VP1") and config.stoplist:
        stoplist = {word.lower() for word in config.stoplist}
        for entity_type in etg.types:
            path = f"types/{entity_type.id}"
            findings.extend(stopword_findings(path, entity_type.label.text, stoplist))

    if config.rule_enabled("EP2"):
        for prop in etg.data_properties:
            if prop.domain not in index:
                findings.append(
                    finding(
                        "EP2",
                        f"data_properties/{prop.name}",
                        f"domain {prop.domain!r} resolves to no type",
                    )
                )
        for prop in etg.object_properties:
            for endpoint, kind in ((prop.domain, "domain"), (prop.range, "range")):
                if endpoint not in index:
                    findings.append(
                        finding(
                            "EP2",
                            f"object_properties/{prop.name}",
                            f"{kind} {endpoint!r} resolves to no type",
                        )
                    )

    if config.rule_enabled("EP1"):
        message = "no identifying data property on the type or its ancestors"
        for entity_type in etg.types:
            chain = chains.get(entity_type.id)
            if chain is not None and not chain.identified:
                findings.append(finding("EP1", f"types/{entity_type.id}", message))

    if config.rule_enabled("EP3"):
        for entity_type in etg.types:
            chain = chains.get(entity_type.id)
            for name in sorted(chain.redeclared) if chain is not None else ():
                message = f"property {name!r} redeclared along the inheritance chain"
                findings.append(finding("EP3", f"types/{entity_type.id}/{name}", message))

    return sort_findings(findings)


# ---------------------------------------------------------------------------
# Repository


@dataclass(frozen=True)
class RepoEntry:
    etg_id: str
    version: str
    tags: tuple[str, ...]
    lint_status: str  # "clean" or "warnings"


@dataclass(frozen=True)
class EtgRepository:
    root: Path
    entries: tuple[RepoEntry, ...] = ()

    def entry_path(self, entry: RepoEntry) -> Path:
        return self.root / entry.etg_id / f"{entry.version}.etg.json"


_REPOSITORY = Fields(("entries", "objects", ()))
_ENTRY = Fields(
    ("id", "identifier"), ("version", "identifier"), ("tags", "strings"), ("lint_status", "string")
)


def open_repository(root: str | Path) -> EtgRepository:
    """Open (or initialize) an ETG repository rooted at *root*."""
    root = Path(root)
    catalogue = root / "catalogue.json"
    if not catalogue.exists():
        return EtgRepository(root)
    what = "repository catalogue"
    (entries_raw,) = _REPOSITORY.read(
        parse_json(catalogue.read_text(encoding="utf-8"), what), what
    )
    entries = []
    for raw in entries_raw:
        etg_id, version, tags, lint_status = _ENTRY.read(raw, f"{what} entry")
        entries.append(RepoEntry(etg_id, version, tuple(tags), lint_status))
    repo = EtgRepository(root, tuple(entries))
    for entry in entries:
        if not repo.entry_path(entry).exists():
            raise FormatError(
                f"repository catalogue lists missing file {repo.entry_path(entry)}"
            )
    return repo


def _write_catalogue(repo: EtgRepository) -> None:
    payload = {
        "entries": [
            {
                "id": e.etg_id,
                "version": e.version,
                "tags": list(e.tags),
                "lint_status": e.lint_status,
            }
            for e in sorted(repo.entries, key=lambda e: (e.etg_id, e.version))
        ]
    }
    (repo.root / "catalogue.json").write_text(
        json.dumps(payload, ensure_ascii=True, indent=2) + "\n", encoding="utf-8"
    )


def repo_add(
    repo: EtgRepository,
    etg: EntityTypeGraph,
    tags: Sequence[str],
    version: str = "1",
    config: EtgLintConfig | None = None,
) -> EtgRepository:
    """Admit *etg* into the repository; lint errors refuse admission."""
    findings = lint_etg(etg, config)
    if has_errors(findings):
        raise LintGateError(
            f"ETG {etg.id} refused: {sum(f.severity == 'error' for f in findings)}"
            " lint error(s)",
            findings,
        )
    validate_identifier(version)
    if any(e.etg_id == etg.id and e.version == version for e in repo.entries):
        raise ValueError(f"repository already holds {etg.id} version {version}")

    status = "warnings" if findings else "clean"
    entry = RepoEntry(etg.id, version, tuple(tags), status)
    target = repo.entry_path(entry)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(etg_to_json(etg), encoding="utf-8")
    updated = replace(repo, entries=repo.entries + (entry,))
    _write_catalogue(updated)
    return updated


def repo_find(repo: EtgRepository, tags: Sequence[str] = ()) -> list[RepoEntry]:
    """Entries whose tag sets intersect *tags*; an empty query matches all."""
    wanted = set(tags)
    hits = [e for e in repo.entries if not wanted or wanted & set(e.tags)]
    return sorted(hits, key=lambda e: (e.etg_id, e.version))


# ---------------------------------------------------------------------------
# Grounding


@dataclass(frozen=True)
class EffectiveProperties:
    data: frozenset[str]
    objects: frozenset[str]


@dataclass(frozen=True)
class SchemaGraph:
    """A lightweight ontology grounded in an ETG."""

    ontology: LightweightOntology
    etg: EntityTypeGraph
    grounding: Mapping[str, str]
    effective_properties: Mapping[str, EffectiveProperties]


def ground(
    ontology: LightweightOntology,
    etg: EntityTypeGraph,
    mapping: Mapping[str, str] | None = None,
) -> tuple[SchemaGraph, list[Finding]]:
    """Ground every ontology node in an ETG type.

    Resolution order per node: explicit mapping entry, then case-insensitive
    label match against type labels, then the nearest grounded ancestor's
    type (reported as a GR1 warning).  Grounding is total on success.
    """
    mapping = dict(mapping or {})
    etg_findings = lint_etg(etg)
    if has_errors(etg_findings):
        raise LintGateError(f"ETG {etg.id} is not lint-clean", etg_findings)

    index = etg.type_index()
    for node_id, type_id in mapping.items():
        if node_id not in ontology.nodes:
            raise ValueError(f"mapping references unknown ontology node {node_id!r}")
        if type_id not in index:
            raise ValueError(f"mapping references unknown entity type {type_id!r}")

    label_matches: dict[str, list[str]] = {}
    for entity_type in etg.types:
        label_matches.setdefault(entity_type.label.text.strip().lower(), []).append(
            entity_type.id
        )

    def match_label(label: str) -> str | None:
        candidates = label_matches.get(label.strip().lower(), [])
        return candidates[0] if len(candidates) == 1 else None

    grounding: dict[str, str] = {}
    findings: list[Finding] = []

    root = ontology.nodes[ontology.root]
    root_type = mapping.get(root.id) or match_label(root.label)
    if root_type is None:
        raise ValueError(
            f"root node {root.id!r} ({root.label!r}) matches no entity type"
            " and has no mapping entry"
        )
    grounding[root.id] = root_type

    queue = [root.id]
    for current in queue:  # breadth first; the loop reads what it appends
        for child in ontology.children(current):
            type_id = mapping.get(child.id) or match_label(child.label)
            if type_id is None:
                type_id = grounding[current]
                findings.append(
                    finding(
                        "GR1",
                        f"nodes/{child.id}",
                        f"node {child.label!r} grounded by inheriting"
                        f" {type_id!r} from its ancestor",
                    )
                )
            grounding[child.id] = type_id
            queue.append(child.id)

    if set(grounding) != set(ontology.nodes):
        unreachable = sorted(set(ontology.nodes) - set(grounding))
        raise ValueError(f"ontology nodes unreachable from the root: {unreachable}")

    by_type = TermTable(  # one chain walk per grounded type, shared by its nodes
        lambda type_id: EffectiveProperties(
            data=frozenset(etg.effective_data_properties(type_id)),
            objects=frozenset(etg.effective_object_properties(type_id)),
        )
    )
    effective = {node_id: by_type[type_id] for node_id, type_id in grounding.items()}
    schema_graph = SchemaGraph(ontology, etg, grounding, effective)
    return schema_graph, sort_findings(findings)
