"""Deterministic entity-graph exporters and their inverse loaders.

All three exporters (N-Triples-style lines, JSON graph, FCA context matrix)
produce byte-identical output for equal graphs; the N-Triples and JSON-graph
formats round-trip through their loaders.
"""

from __future__ import annotations

import csv
import io
import json
from functools import partial

from .core import Fields, FormatError, Iri, format_timestamp, parse_json, parse_timestamp
from .eg import (
    LITERAL_DATATYPES,
    EntityGraph,
    Literal,
    Triple,
    derive_base,
    property_predicate,
    type_iri,
    type_predicate,
)

__all__ = [
    "XSD",
    "export_fca",
    "export_jsongraph",
    "export_ntriples",
    "load_entity_graph_json",
    "parse_ntriples",
    "render_ntriples",
    "render_term",
]

XSD = {
    "string": "http://www.w3.org/2001/XMLSchema#string",
    "integer": "http://www.w3.org/2001/XMLSchema#integer",
    "date": "http://www.w3.org/2001/XMLSchema#date",
}
_XSD_REVERSE = {iri: name for name, iri in XSD.items()}

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def _escape(text: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in text)


def render_term(term: Iri | Literal) -> str:
    if isinstance(term, Iri):
        return f"<{term.value}>"
    return f'"{_escape(term.text)}"^^<{XSD[term.datatype]}>'


# ---------------------------------------------------------------------------
# N-Triples-style lines


def render_ntriples(triples) -> bytes:
    """Render triples as sorted ``<s> <p> <o> .`` lines (LF, trailing newline)."""
    lines = sorted(
        f"{render_term(t.subject)} {render_term(t.predicate)} {render_term(t.object)} .".encode()
        for t in triples
    )
    if not lines:
        return b""
    return b"\n".join(lines) + b"\n"


def export_ntriples(eg: EntityGraph) -> bytes:
    return render_ntriples(eg.triples)


def _read_term(text: str, position: int) -> tuple[Iri | Literal, int]:
    if text[position] == "<":
        end = text.index(">", position)
        return Iri(text[position + 1:end]), end + 1
    if text[position] == '"':
        chars: list[str] = []
        cursor = position + 1
        while cursor < len(text):
            ch = text[cursor]
            if ch == "\\":
                escaped = _UNESCAPES.get(text[cursor + 1])
                if escaped is None:
                    raise FormatError(f"bad escape \\{text[cursor + 1]} in literal")
                chars.append(escaped)
                cursor += 2
                continue
            if ch == '"':
                break
            chars.append(ch)
            cursor += 1
        else:
            raise FormatError("unterminated literal")
        cursor += 1
        if not text.startswith("^^<", cursor):
            raise FormatError("literal missing ^^<datatype>")
        end = text.index(">", cursor + 3)
        datatype_iri = text[cursor + 3:end]
        datatype = _XSD_REVERSE.get(datatype_iri)
        if datatype is None:
            raise FormatError(f"unsupported literal datatype {datatype_iri!r}")
        return Literal("".join(chars), datatype), end + 1
    raise FormatError(f"unexpected term at column {position}: {text[position:]!r}")


def parse_ntriples(data: bytes | str) -> tuple[Triple, ...]:
    """Parse the exporter's line subset: IRI terms and typed literals."""
    text = data.decode() if isinstance(data, bytes) else data
    triples: list[Triple] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            subject, position = _read_term(line, 0)
            predicate, position = _read_term(line, position + 1)
            obj, position = _read_term(line, position + 1)
        except (ValueError, IndexError) as exc:
            raise FormatError(f"line {line_number}: {exc}") from None
        if line[position:].strip() != ".":
            raise FormatError(f"line {line_number}: missing terminating dot")
        if not isinstance(subject, Iri) or not isinstance(predicate, Iri):
            raise FormatError(f"line {line_number}: subject/predicate must be IRIs")
        triples.append(Triple(subject, predicate, obj))
    return tuple(triples)


# ---------------------------------------------------------------------------
# JSON graph


def export_jsongraph(eg: EntityGraph) -> bytes:
    """Self-contained JSON rendering: metadata, typed entities, links.

    Each entity carries its literal values; every IRI-valued fact other than
    a type is a link.  Property names are stored bare; their predicate IRIs
    follow the fixed ``<base>/prop/<name>`` convention and are recovered by
    the loader.
    """
    predicate_type = type_predicate(derive_base(eg.iri)).value
    entities: dict[str, dict] = {}
    values: dict[str, list[dict]] = {}
    links = []
    for t in eg.triples:
        subject = t.subject.value
        if t.predicate.value == predicate_type:
            entities[subject] = {
                "iri": subject,
                "type": t.object.value.rsplit("/", 1)[1],
                "values": values.setdefault(subject, []),
            }
            continue
        prop = t.predicate.value.rsplit("/", 1)[1]
        if isinstance(t.object, Literal):
            values.setdefault(subject, []).append(
                {"property": prop, "datatype": t.object.datatype, "value": t.object.text}
            )
        else:
            links.append({"subject": subject, "property": prop, "object": t.object.value})

    for entity in entities.values():
        entity["values"].sort(key=lambda v: (v["property"], v["datatype"], v["value"]))
    links.sort(key=lambda l: (l["subject"], l["property"], l["object"]))
    payload = {
        "metadata": {
            "iri": eg.iri.value,
            "timestamp": format_timestamp(eg.timestamp),
            "sources": list(eg.sources),
            "counts": {"entities": len(entities), "triples": len(eg.triples)},
        },
        "entities": [entities[key] for key in sorted(entities)],
        "links": links,
    }
    return json.dumps(payload, ensure_ascii=True, separators=(",", ":")).encode() + b"\n"


_GRAPH = Fields(("metadata", "object"), ("entities", "objects"), ("links", "objects"))
_METADATA = Fields(
    ("iri", "string"), ("timestamp", "string"), ("sources", "strings"), ("counts", "object", None)
)
_COUNTS = Fields(("entities", "int"), ("triples", "int"))
_ENTITY = Fields(("iri", "string"), ("type", "string"), ("values", "objects"))
_VALUE = Fields(("property", "string"), ("datatype", "string"), ("value", "string"))
_LINK = Fields(("subject", "string"), ("property", "string"), ("object", "string"))


def load_entity_graph_json(data: bytes | str) -> EntityGraph:
    """Rebuild an entity graph from :func:`export_jsongraph` output.

    Raises :class:`FormatError` on a malformed document, including a missing
    or unknown key, a term or ``sources`` item that is not a string, an IRI
    under an entity's ``values`` (it belongs under ``links``) and an entity
    listed twice.  ``counts`` is derived on export and not read back.
    """
    metadata, entities, links = _GRAPH.read(parse_json(data, "entity graph"), "entity graph")
    iri, stamp, sources, counts = _METADATA.read(metadata, "entity graph: metadata")
    if counts is not None:
        _COUNTS.read(counts, "entity graph: counts")
    try:
        eg_iri = Iri(iri)
        timestamp = parse_timestamp(stamp)
        base = derive_base(eg_iri)
    except ValueError as exc:
        raise FormatError(f"entity graph: metadata: {exc}") from None
    predicate_type = type_predicate(base)

    # Each distinct IRI, type name and property name is checked and built once.
    iris: dict[str, Iri] = {}
    type_terms: dict[str, Iri] = {}
    predicates: dict[str, Iri] = {}

    def term(cache: dict[str, Iri], make, text: str, where: str) -> Iri:
        found = cache.get(text)
        if found is None:
            try:
                found = cache[text] = make(text)
            except ValueError as exc:
                raise FormatError(f"{where}: {exc}") from None
        return found

    type_term, predicate = partial(type_iri, base), partial(property_predicate, base)
    triples: list[Triple] = []
    for raw in entities:
        entity_iri, type_name, values = _ENTITY.read(raw, "entity graph: entity")
        where = f"entity graph: entity {entity_iri}"
        if entity_iri in iris:
            raise FormatError(f"{where} is listed more than once")
        subject = term(iris, Iri, entity_iri, where)
        type_object = term(type_terms, type_term, type_name, where)
        triples.append(Triple(subject, predicate_type, type_object))
        for value_raw in values:
            name, datatype, text = _VALUE.read(value_raw, where)
            if datatype == "iri":
                raise FormatError(f"{where}: IRI values belong under 'links', not 'values'")
            if datatype not in LITERAL_DATATYPES:
                raise FormatError(
                    f"{where}: literal datatype {datatype!r} is not one of {LITERAL_DATATYPES}"
                )
            triples.append(
                Triple(subject, term(predicates, predicate, name, where), Literal(text, datatype))
            )
    for raw in links:
        subject, name, object_iri = _LINK.read(raw, "entity graph: link")
        where = f"entity graph: link from {subject}"
        if name == "type":
            raise FormatError(f"{where}: types belong to entities, not links")
        triples.append(
            Triple(
                term(iris, Iri, subject, where),
                term(predicates, predicate, name, where),
                term(iris, Iri, object_iri, where),
            )
        )

    return EntityGraph(
        iri=eg_iri,
        timestamp=timestamp,
        sources=tuple(sources),
        triples=tuple(sorted(triples, key=Triple.sort_key)),
    )


# ---------------------------------------------------------------------------
# FCA context matrix


def export_fca(eg: EntityGraph) -> bytes:
    """Binary entity-by-attribute incidence matrix as CSV.

    Columns are the property names used anywhere in the graph plus one
    ``type:<T>`` column per entity type in use, sorted; rows are entity IRIs,
    sorted.  A cell is ``1`` iff the entity has at least one value for the
    property (or is of the type).
    """
    predicate_type = type_predicate(derive_base(eg.iri)).value
    types: dict[str, str] = {}
    incidence: dict[str, set[str]] = {}
    for triple in eg.triples:
        subject = triple.subject.value
        if triple.predicate.value == predicate_type:
            types[subject] = "type:" + triple.object.value.rsplit("/", 1)[1]
        else:
            incidence.setdefault(subject, set()).add(triple.predicate.value.rsplit("/", 1)[1])
    columns = sorted(set().union(*incidence.values(), types.values()))

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(["entity", *columns])
    for iri_value in sorted(types):
        attributes = incidence.get(iri_value, set()) | {types[iri_value]}
        writer.writerow([iri_value, *("1" if column in attributes else "0" for column in columns)])
    return buffer.getvalue().encode()
