"""Deterministic entity-graph exporters and their inverse loaders.

All three exporters (N-Triples-style lines, JSON graph, FCA context matrix)
produce byte-identical output for equal graphs; the N-Triples and JSON-graph
formats round-trip through their loaders.
"""

from __future__ import annotations

import csv
import io
import json

from .core import FormatError, Iri, parse_timestamp, format_timestamp
from .eg import (
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


def _text(raw: dict, key: str, where: str) -> str:
    value = raw[key]
    if not isinstance(value, str):
        raise FormatError(f"entity graph: {where}: {key!r} must be a string")
    return value


def load_entity_graph_json(data: bytes | str) -> EntityGraph:
    """Rebuild an entity graph from :func:`export_jsongraph` output.

    Raises :class:`FormatError` on a malformed document, including a missing
    key, a term or ``sources`` item that is not a string, an IRI under an
    entity's ``values`` (it belongs under ``links``) and an entity listed
    twice.
    """
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise FormatError(f"entity graph: parse error: {exc.msg}") from None
    try:
        return _load_entity_graph(payload)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"entity graph: malformed document ({exc})") from None


def _load_entity_graph(payload) -> EntityGraph:
    metadata = payload["metadata"]
    eg_iri = Iri(_text(metadata, "iri", "metadata"))
    timestamp = parse_timestamp(_text(metadata, "timestamp", "metadata"))
    sources = metadata["sources"]
    if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
        raise FormatError("entity graph: metadata: 'sources' must be a list of strings")
    base = derive_base(eg_iri)
    predicate_type = type_predicate(base)

    predicates: dict[str, Iri] = {}
    type_terms: dict[str, Iri] = {}

    def predicate(raw: dict, where: str) -> Iri:
        name = _text(raw, "property", where)
        if name not in predicates:
            predicates[name] = property_predicate(base, name)
        return predicates[name]

    triples: list[Triple] = []
    seen: set[str] = set()
    for raw in payload["entities"]:
        subject = Iri(_text(raw, "iri", "entity"))
        where = f"entity {subject.value}"
        if subject.value in seen:
            raise FormatError(f"entity graph: {where} is listed more than once")
        seen.add(subject.value)
        type_name = _text(raw, "type", where)
        if type_name not in type_terms:
            type_terms[type_name] = type_iri(base, type_name)
        triples.append(Triple(subject, predicate_type, type_terms[type_name]))
        for value_raw in raw["values"]:
            datatype = _text(value_raw, "datatype", where)
            if datatype == "iri":
                raise FormatError(
                    f"entity graph: {where}: IRI values belong under 'links', not 'values'"
                )
            literal = Literal(_text(value_raw, "value", where), datatype)
            triples.append(Triple(subject, predicate(value_raw, where), literal))
    for raw in payload["links"]:
        subject = Iri(_text(raw, "subject", "link"))
        where = f"link from {subject.value}"
        object_iri = Iri(_text(raw, "object", where))
        link_predicate = predicate(raw, where)
        if link_predicate == predicate_type:
            raise FormatError(f"entity graph: {where}: types belong to entities, not links")
        triples.append(Triple(subject, link_predicate, object_iri))

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
