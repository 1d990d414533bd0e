"""Deterministic entity-graph exporters and their inverse loaders.

All three exporters (N-Triples-style lines, JSON graph, FCA context matrix)
produce byte-identical output for equal graphs; the N-Triples and JSON-graph
formats round-trip through their loaders.
"""

from __future__ import annotations

import csv
import io
import json
import re
from functools import partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _json_string

from .core import (
    Fields,
    FormatError,
    Iri,
    TermTable,
    format_timestamp,
    parse_json,
    parse_timestamp,
)
from .eg import (
    _TRIPLE,
    LITERAL_DATATYPES,
    EntityGraph,
    Literal,
    Triple,
    canonical_order,
    derive_base,
    property_predicate,
    type_iri,
    type_predicate,
)

__all__ = [
    "XSD",
    "XSD_NAMES",
    "export_fca",
    "export_jsongraph",
    "export_ntriples",
    "load_entity_graph_json",
    "parse_ntriples",
    "read_literal",
    "render_ntriples",
    "render_term",
    "unescape",
]

XSD = {
    "string": "http://www.w3.org/2001/XMLSchema#string",
    "integer": "http://www.w3.org/2001/XMLSchema#integer",
    "date": "http://www.w3.org/2001/XMLSchema#date",
}
XSD_NAMES = {iri: name for name, iri in XSD.items()}  # each datatype IRI to its name

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
# ``str.translate`` takes its slow path for a table that maps a character
# to several, so it runs only on the few texts that hold such a character.
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
_NEEDS_ESCAPE = re.compile("[" + re.escape("".join(_ESCAPES)) + "]")
_QUOTED = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"', re.DOTALL)
_ESCAPE_PAIR = re.compile(r"\\(.)", re.DOTALL)


def _escape(text: str) -> str:
    return text.translate(_ESCAPE_TABLE) if _NEEDS_ESCAPE.search(text) else text


def render_term(term: Iri | Literal) -> str:
    if isinstance(term, Iri):
        return f"<{term.value}>"
    return f'"{_escape(term.text)}"^^<{XSD[term.datatype]}>'


# ---------------------------------------------------------------------------
# N-Triples-style lines


def render_ntriples(triples) -> bytes:
    """Render triples as sorted ``<s> <p> <o> .`` lines (LF, trailing newline).

    The lines are sorted as text: UTF-8 keeps code point order, so that is
    the order of their bytes.
    """
    lines = []
    add = lines.append
    for t in triples:
        obj = t.object
        if isinstance(obj, Iri):
            add(f"<{t.subject.value}> <{t.predicate.value}> <{obj.value}> .")
        else:
            add(
                f'<{t.subject.value}> <{t.predicate.value}>'
                f' "{_escape(obj.text)}"^^<{XSD[obj.datatype]}> .'
            )
    if not lines:
        return b""
    lines.sort()
    lines.append("")
    return "\n".join(lines).encode()


def export_ntriples(eg: EntityGraph) -> bytes:
    return render_ntriples(eg.triples)


def read_literal(text: str, start: int) -> tuple[str, int]:
    """The decoded text (see :func:`unescape`) of the quoted literal
    opening at *start*, and the index just past its closing quote."""
    match = _QUOTED.match(text, start)
    if match is None:
        raise FormatError("unterminated literal")
    return unescape(match.group(1)), match.end()


def unescape(body: str) -> str:
    """The text of the literal quoted as ``"body"``.

    A backslash escapes the character after it, so escapes are read in
    pairs; only the escapes :func:`render_term` writes are accepted.
    """
    return _ESCAPE_PAIR.sub(_unescape, body) if "\\" in body else body


def _unescape(match: re.Match) -> str:
    decoded = _UNESCAPES.get(match.group(1))
    if decoded is None:
        raise FormatError(f"bad escape \\{match.group(1)} in literal")
    return decoded


# A line as ``render_ntriples`` writes it: three terms, the first two each
# followed by one space or one tab, then the dot.
_LINE = re.compile(
    r'<([^>]*)>[ \t]<([^>]*)>[ \t](?:<([^>]*)>|"([^"\\]*(?:\\.[^"\\]*)*)"\^\^<([^>]*)>)\s*\.',
    re.DOTALL,
)


def parse_ntriples(data: bytes | str) -> tuple[Triple, ...]:
    """Parse the exporter's line subset: IRI terms and typed literals.

    One regular expression reads each line; a line it does not match is
    read term by term, which names its first fault.
    """
    text = data.decode() if isinstance(data, bytes) else data
    iris = TermTable(Iri)  # each distinct IRI text is checked and built once
    triples: list[Triple] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        match = _LINE.fullmatch(line)
        try:
            if match is None:
                triples.append(_read_line(line, iris))
                continue
            subject, predicate, object_iri, body, datatype_iri = match.groups()
            subject, predicate = iris[subject], iris[predicate]
            if object_iri is not None:
                obj = iris[object_iri]
            else:
                obj = Literal(unescape(body), _datatype(datatype_iri))
        except ValueError as exc:
            raise FormatError(f"line {line_number}: {exc}") from None
        triples.append(Triple(subject, predicate, obj))
    return tuple(triples)


def _datatype(datatype_iri: str) -> str:
    datatype = XSD_NAMES.get(datatype_iri)
    if datatype is None:
        raise FormatError(f"unsupported literal datatype {datatype_iri!r}")
    return datatype


def _read_line(line: str, iris: TermTable) -> Triple:
    """The triple of *line*, read term by term, or the error of its first fault."""
    subject, position = _read_term(line, 0, iris)
    predicate, position = _read_term(line, _separator(line, position), iris)
    obj, position = _read_term(line, _separator(line, position), iris)
    if line[position:].strip() != ".":
        raise FormatError("missing terminating dot")
    if not isinstance(subject, Iri) or not isinstance(predicate, Iri):
        raise FormatError("subject/predicate must be IRIs")
    return Triple(subject, predicate, obj)


def _separator(line: str, position: int) -> int:
    """The position after the one space or tab that must follow a term."""
    if not line.startswith((" ", "\t"), position):
        found = repr(line[position]) if position < len(line) else "end of line"
        raise FormatError(f"expected a space or a tab at column {position}, found {found}")
    return position + 1


def _read_term(text: str, position: int, iris: TermTable) -> tuple[Iri | Literal, int]:
    if text.startswith("<", position):
        end = _iri_end(text, position)
        return iris[text[position + 1:end]], end + 1
    if text.startswith('"', position):
        value, cursor = read_literal(text, position)
        if not text.startswith("^^<", cursor):
            raise FormatError("literal missing ^^<datatype>")
        end = _iri_end(text, cursor + 2)
        return Literal(value, _datatype(text[cursor + 3:end])), end + 1
    raise FormatError(f"unexpected term at column {position}: {text[position:]!r}")


def _iri_end(text: str, start: int) -> int:
    """The position of the ``>`` that closes the IRI opening at *start*."""
    end = text.find(">", start)
    if end < 0:
        raise FormatError(f"unterminated IRI at column {start}")
    return end


# ---------------------------------------------------------------------------
# JSON graph


def export_jsongraph(eg: EntityGraph) -> bytes:
    """Self-contained JSON rendering: metadata, typed entities, links.

    Each entity carries its literal values; every IRI-valued fact other than
    a type is a link.  Property names are stored bare; their predicate IRIs
    follow the fixed ``<base>/prop/<name>`` convention and are recovered by
    the loader.  The text is what ``json.dumps`` gives with ``ensure_ascii``
    and compact separators, written out here so that each distinct IRI and
    name is encoded once.
    """
    types, values, links = eg.entity_view
    quoted = TermTable(_json_string)  # IRI or name -> its JSON string
    entities = []
    for subject, type_name in types.items():
        entity_values = ",".join(
            [
                f'{{"property":{quoted[prop]},"datatype":{quoted[datatype]},'
                f'"value":{_json_string(text)}}}'
                for prop, datatype, text in values.get(subject, ())
            ]
        )
        entities.append(
            f'{{"iri":{quoted[subject.value]},"type":{quoted[type_name]},'
            f'"values":[{entity_values}]}}'
        )
    link_objects = ",".join(
        [
            f'{{"subject":{quoted[subject]},"property":{quoted[prop]},"object":{quoted[obj]}}}'
            for subject, prop, obj in links
        ]
    )
    metadata = {
        "iri": eg.iri.value,
        "timestamp": format_timestamp(eg.timestamp),
        "sources": list(eg.sources),
        "counts": {"entities": len(types), "triples": len(eg.triples)},
    }
    return (
        f'{{"metadata":{json.dumps(metadata, ensure_ascii=True, separators=(",", ":"))},'
        f'"entities":[{",".join(entities)}],"links":[{link_objects}]}}\n'
    ).encode()


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
    under an entity's ``values`` (it belongs under ``links``), a ``type``
    property under ``values`` or ``links``, an entity, value or link listed
    twice and a link whose subject is not a listed entity.  ``counts`` is
    derived on export and not read back.
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
    try:
        triples = _graph_triples(entities, links, base)
    except ValueError:
        _report_fault(entities, links, base)  # finds every fault the bulk checks find
        raise
    return EntityGraph(iri=eg_iri, timestamp=timestamp, sources=tuple(sources), triples=triples)


def _graph_triples(entities: list, links: list, base: Iri) -> tuple[Triple, ...]:
    """The triples of a graph document's entities and links, in canonical
    order, checked and built a whole list at a time.

    Raises ``ValueError`` at any fault, whose message :func:`_report_fault`
    then gives.  Each distinct IRI, type and property name is built once.
    """
    # A bad object raises here too; _report_fault names it as ``Fields.read`` does.
    texts, type_names, value_lists = _ENTITY.columns(entities, "entity graph: entity")
    names, datatypes, values = _VALUE.columns(
        [*chain.from_iterable(value_lists)], "entity graph: entity"
    )
    link_subjects, link_names, link_objects = _LINK.columns(links, "entity graph: link")

    subjects = Iri.many(texts)
    iris = dict(zip(texts, subjects))
    link_properties = {*link_names}
    predicates = {name: property_predicate(base, name) for name in {*names, *link_properties}}
    if len(iris) < len(texts) or "type" in predicates or not iris.keys() >= {*link_subjects}:
        raise ValueError("entity graph fault")
    types = {name: type_iri(base, name) for name in {*type_names}}
    outside = [*{*link_objects} - iris.keys()]
    iris.update(zip(outside, Iri.many(outside)))

    type_triples = zip(subjects, repeat(type_predicate(base)), map(types.__getitem__, type_names))
    value_triples = zip(
        chain.from_iterable(map(repeat, subjects, map(len, value_lists))),
        map(predicates.__getitem__, names),
        Literal.many(values, datatypes),
    )
    link_triples = zip(
        map(iris.__getitem__, link_subjects),
        map(predicates.__getitem__, link_names),
        map(iris.__getitem__, link_objects),
    )
    triples = [*map(_TRIPLE, chain(type_triples, value_triples, link_triples))]
    object_kinds = {("type", "iri"), *zip(names, datatypes), *zip(link_properties, repeat("iri"))}
    ordered = canonical_order(triples, object_kinds)
    if len({*ordered}) < len(ordered):
        raise ValueError("entity graph fault")
    return ordered


def _report_fault(entities: list, links: list, base: Iri) -> None:
    """Raise ``FormatError`` for the first fault of a graph document's
    entities, their values and its links, read one object at a time in
    document order."""

    def check(make, text: str, where: str) -> None:
        try:
            make(text)
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from None

    type_term, predicate = partial(type_iri, base), partial(property_predicate, base)
    listed: set[str] = set()
    facts: set[tuple[str, ...]] = set()
    for raw in entities:
        entity_iri, type_name, values = _ENTITY.read(raw, "entity graph: entity")
        where = f"entity graph: entity {entity_iri}"
        if entity_iri in listed:
            raise FormatError(f"{where} is listed more than once")
        listed.add(entity_iri)
        check(Iri, entity_iri, where)
        check(type_term, type_name, where)
        for value_raw in values:
            name, datatype, text = _VALUE.read(value_raw, where)
            if name == "type":
                raise FormatError(f"{where}: types belong to entities, not values")
            if datatype == "iri":
                raise FormatError(f"{where}: IRI values belong under 'links', not 'values'")
            if datatype not in LITERAL_DATATYPES:
                raise FormatError(
                    f"{where}: literal datatype {datatype!r} is not one of {LITERAL_DATATYPES}"
                )
            check(predicate, name, where)
            if (entity_iri, name, datatype, text) in facts:
                raise FormatError(
                    f"{where}: {datatype} value {text!r} of {name!r} is listed more than once"
                )
            facts.add((entity_iri, name, datatype, text))
    for raw in links:
        subject, name, object_iri = _LINK.read(raw, "entity graph: link")
        where = f"entity graph: link from {subject}"
        if name == "type":
            raise FormatError(f"{where}: types belong to entities, not links")
        check(Iri, subject, where)
        check(predicate, name, where)
        check(Iri, object_iri, where)
        if subject not in listed:
            raise FormatError(f"{where}: subject is not a listed entity")
        if (subject, name, object_iri) in facts:
            raise FormatError(f"{where}: link {name!r} to {object_iri} is listed more than once")
        facts.add((subject, name, object_iri))


# ---------------------------------------------------------------------------
# FCA context matrix


def export_fca(eg: EntityGraph) -> bytes:
    """Binary entity-by-attribute incidence matrix as CSV.

    Columns are the property names used anywhere in the graph plus one
    ``type:<T>`` column per entity type in use, sorted; rows are entity IRIs,
    sorted.  A cell is ``1`` iff the entity has at least one value for the
    property (or is of the type).
    """
    entity_types, values, links = eg.entity_view
    types = {subject.value: "type:" + name for subject, name in entity_types.items()}
    incidence = {subject.value: {prop for prop, _, _ in group} for subject, group in values.items()}
    for subject, prop, _ in links:
        incidence.setdefault(subject, set()).add(prop)
    columns = sorted(set().union(*incidence.values(), types.values()))
    position = {column: index for index, column in enumerate(columns, start=1)}

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(["entity", *columns])
    for iri_value in types:
        row = [iri_value, *["0"] * len(columns)]
        for column in (*incidence.get(iri_value, ()), types[iri_value]):
            row[position[column]] = "1"
        writer.writerow(row)
    return buffer.getvalue().encode()
