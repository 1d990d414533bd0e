"""Lightweight backbone ontologies built from a lexical hierarchy and a schema.

The builder resolves each dataset-schema class name to a word sense, splices
the full hypernym path into a tree (merging shared prefixes on synset id),
and keeps unresolvable classes directly under the root with an LO1 warning.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping

from .core import (
    Fields,
    Finding,
    FormatError,
    finding,
    parent_cycles,
    parse_json,
    shared_label_findings,
    sort_findings,
)
from .lexsem import LexicalSemanticResource, hypernym_path, resolve_sense

__all__ = [
    "DatasetSchema",
    "LightweightOntology",
    "OntologyNode",
    "SchemaAttribute",
    "SchemaClass",
    "build_lightweight_ontology",
    "canonical_json",
    "load_dataset_schema",
    "load_ontology_json",
    "validate_backbone",
]

DATATYPES = ("string", "integer", "date", "reference")

_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


@dataclass(frozen=True)
class SchemaAttribute:
    name: str
    datatype: str
    target: str | None = None


@dataclass(frozen=True)
class SchemaClass:
    name: str
    attributes: tuple[SchemaAttribute, ...] = ()


@dataclass(frozen=True)
class DatasetSchema:
    classes: tuple[SchemaClass, ...]


@dataclass(frozen=True)
class OntologyNode:
    id: str
    label: str
    synset_id: str | None = None
    schema_class: str | None = None
    parent: str | None = None


@dataclass(frozen=True)
class LightweightOntology:
    """A rooted is-a tree; nodes are keyed by id in insertion order.

    ``_children`` maps each parent id to its children sorted by label, then
    id; it is built once, with the ontology, and takes no part in ``==`` or
    ``repr``.
    """

    root: str
    nodes: Mapping[str, OntologyNode]
    _children: dict[str | None, tuple[OntologyNode, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        groups: dict[str | None, list[OntologyNode]] = {}
        for node in self.nodes.values():
            groups.setdefault(node.parent, []).append(node)
        object.__setattr__(
            self,
            "_children",
            {
                parent: tuple(sorted(kids, key=lambda n: (n.label, n.id)))
                for parent, kids in groups.items()
            },
        )

    def children(self, node_id: str) -> list[OntologyNode]:
        return list(self._children.get(node_id, ()))


# ---------------------------------------------------------------------------
# Dataset schemas


_SCHEMA = Fields(("classes", "objects", ()))
_CLASS = Fields(("name", "identifier"), ("attributes", "objects", ()))
_ATTRIBUTE = Fields(("name", "string"), ("datatype", "string"), ("target", "string", None))


def load_dataset_schema(document: str | bytes) -> DatasetSchema:
    (classes_raw,) = _SCHEMA.read(parse_json(document, "dataset schema"), "dataset schema")
    classes: list[SchemaClass] = []
    names: set[str] = set()
    for raw in classes_raw:
        name, attributes_raw = _CLASS.read(raw, "dataset schema class")
        if name in names:
            raise FormatError(f"dataset schema: duplicate class {name!r}")
        names.add(name)
        where = f"class {name}"
        attributes: list[SchemaAttribute] = []
        attr_names: set[str] = set()
        for attr_raw in attributes_raw:
            attribute = SchemaAttribute(*_ATTRIBUTE.read(attr_raw, f"{where} attribute"))
            if attribute.datatype not in DATATYPES:
                raise FormatError(
                    f"{where}: attribute {attribute.name!r} has unknown"
                    f" datatype {attribute.datatype!r}"
                )
            if attribute.name in attr_names:
                raise FormatError(f"{where}: duplicate attribute {attribute.name!r}")
            attr_names.add(attribute.name)
            if (attribute.datatype == "reference") != (attribute.target is not None):
                raise FormatError(
                    f"{where}: attribute {attribute.name!r} target must be"
                    " given exactly for reference attributes"
                )
            attributes.append(attribute)
        classes.append(SchemaClass(name, tuple(attributes)))

    for cls in classes:
        for attribute in cls.attributes:
            if attribute.target is not None and attribute.target not in names:
                raise FormatError(
                    f"class {cls.name}: reference target {attribute.target!r}"
                    " names no class"
                )
    return DatasetSchema(tuple(classes))


# ---------------------------------------------------------------------------
# Building


def normalize_class_name(name: str) -> list[str]:
    """Lowercased tokens of a class name (camel case and underscores split)."""
    spaced = _CAMEL_RE.sub(" ", name.replace("_", " "))
    return [token for token in spaced.lower().split() if token]


def build_lightweight_ontology(
    lexsem: LexicalSemanticResource, language: str, schema: DatasetSchema
) -> tuple[LightweightOntology, list[Finding]]:
    """Build the backbone tree for *schema* over one language hierarchy.

    Classes whose names fail sense resolution attach directly under the root
    and produce an LO1 warning each.
    """
    if not schema.classes:
        raise ValueError("dataset schema has no classes")
    root_synset = lexsem.root_of(language)

    nodes: dict[str, OntologyNode] = {
        root_synset.id: OntologyNode(
            id=root_synset.id, label=root_synset.lemmas[0], synset_id=root_synset.id
        )
    }
    findings: list[Finding] = []

    for cls in schema.classes:
        tokens = normalize_class_name(cls.name)
        synset = None
        for candidate in (" ".join(tokens), tokens[-1] if tokens else ""):
            if not candidate:
                continue
            try:
                synset = resolve_sense(lexsem, candidate, language)
                break
            except ValueError:
                continue

        if synset is None:
            node_id = cls.name
            if node_id in nodes:
                raise ValueError(f"ontology already has a node {node_id!r}")
            nodes[node_id] = OntologyNode(
                id=node_id,
                label=cls.name,
                schema_class=cls.name,
                parent=root_synset.id,
            )
            findings.append(
                finding("LO1", f"nodes/{node_id}", f"class name {cls.name!r} has no sense")
            )
            continue

        path = list(reversed(hypernym_path(lexsem, synset.id)))  # root first
        parent_id: str | None = None
        for step in path:
            if step.id not in nodes:
                nodes[step.id] = OntologyNode(
                    id=step.id,
                    label=step.lemmas[0],
                    synset_id=step.id,
                    parent=parent_id,
                )
            parent_id = step.id
        leaf = nodes[synset.id]
        if leaf.schema_class is not None and leaf.schema_class != cls.name:
            raise ValueError(
                f"classes {leaf.schema_class!r} and {cls.name!r} both resolve"
                f" to synset {synset.id}"
            )
        nodes[synset.id] = OntologyNode(
            id=leaf.id,
            label=leaf.label,
            synset_id=leaf.synset_id,
            schema_class=cls.name,
            parent=leaf.parent,
        )

    return LightweightOntology(root_synset.id, nodes), sort_findings(findings)


# ---------------------------------------------------------------------------
# Validation


def validate_backbone(ontology: LightweightOntology) -> list[Finding]:
    """Check the backbone rules: single root, tree shape, sibling labels."""
    findings: list[Finding] = []
    nodes = ontology.nodes

    roots = [n.id for n in nodes.values() if n.parent is None]
    if len(roots) != 1:
        findings.append(
            finding("LO2", "nodes", f"expected exactly one root, found {sorted(roots)}")
        )

    for node in nodes.values():
        if node.parent is not None and node.parent not in nodes:
            findings.append(
                finding("LO3", f"nodes/{node.id}", f"dangling parent {node.parent!r}")
            )
    for _, members in parent_cycles(nodes, attrgetter("parent")):
        findings.append(
            finding("LO3", f"nodes/{members[0]}", f"parent cycle {{{', '.join(members)}}}")
        )
    findings.extend(
        shared_label_findings("LO4", "nodes", ((n.parent, n.id, n.label) for n in nodes.values()))
    )
    return sort_findings(findings)


# ---------------------------------------------------------------------------
# Canonical serialization


_dumps = json.JSONEncoder(ensure_ascii=True, separators=(",", ":")).encode
_COMMA = object()
_CLOSE = object()


def canonical_json(ontology: LightweightOntology) -> bytes:
    """Deterministic serialization: children sorted by label, compact JSON.

    The tree is written depth first from an explicit stack, so a chain of
    any depth serializes; the bytes are those of ``json.dumps`` on the
    nested payload.
    """
    parts: list[str] = []
    stack: list[object] = [ontology.root]
    budget = len(ontology.nodes)
    while stack:
        item = stack.pop()
        if item is _COMMA:
            parts.append(",")
        elif item is _CLOSE:
            parts.append("]}")
        else:
            budget -= 1
            if budget < 0:
                raise ValueError(f"ontology: parent cycle under root {ontology.root!r}")
            node = ontology.nodes[item]
            parts.append(
                f'{{"id":{_dumps(node.id)},"label":{_dumps(node.label)},'
                f'"synset":{_dumps(node.synset_id)},"class":{_dumps(node.schema_class)},'
                '"children":['
            )
            stack.append(_CLOSE)
            for position, child in enumerate(reversed(ontology._children.get(node.id, ()))):
                if position:
                    stack.append(_COMMA)
                stack.append(child.id)
    parts.append("\n")
    return "".join(parts).encode()


_NODE = Fields(
    ("id", "string"), ("label", "string"), ("synset", "string", None), ("class", "string", None),
    ("children", "objects", ()),
)


def load_ontology_json(document: str | bytes) -> LightweightOntology:
    """Parse the canonical serialization back into an ontology.

    The tree is read from an explicit stack, so a chain of any depth loads.
    """
    data = parse_json(document, "ontology")
    nodes: dict[str, OntologyNode] = {}
    stack: list[tuple[object, str | None]] = [(data, None)]
    while stack:
        raw, parent = stack.pop()
        where = "ontology" if parent is None else f"ontology: child of {parent!r}"
        node_id, label, synset_id, schema_class, children = _NODE.read(raw, where)
        if node_id in nodes:
            raise FormatError(f"ontology: duplicate node id {node_id!r}")
        nodes[node_id] = OntologyNode(node_id, label, synset_id, schema_class, parent)
        stack.extend((child, node_id) for child in reversed(children))
    return LightweightOntology(data["id"], nodes)
