from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import replace
from datetime import datetime, timezone
from functools import cached_property

import pytest

from facetforge import build_entity_graph, ground, load_etg, load_mapping_spec
from facetforge.cli import parse_query_text
from facetforge.core import FormatError, Iri
from facetforge.eg import Entity, EntityGraph, Literal, Triple
from facetforge.exports import (
    export_fca,
    export_jsongraph,
    export_ntriples,
    load_entity_graph_json,
    parse_ntriples,
    render_ntriples,
    render_term,
)
from facetforge.fixtures import fixture_text
from facetforge.query import run_query
from helpers import (
    AT,
    BASE,
    oracle_export_fca,
    oracle_export_jsongraph,
    oracle_render_ntriples,
    oracle_render_term,
    random_export_graph,
)


def empty_eg():
    return EntityGraph(
        iri=Iri("https://ex.org/du/eg/2024-01-01T00-00-00Z"),
        timestamp=datetime(2024, 1, 1, tzinfo=timezone.utc),
        sources=(),
        triples=(),
    )


class TestNtriples:
    def test_empty_graph_exports_empty_bytes(self):
        assert export_ntriples(empty_eg()) == b""

    def test_line_count_and_sortedness(self, figure_eg):
        data = export_ntriples(figure_eg)
        lines = data.decode().splitlines()
        assert len(lines) == len(figure_eg.triples)
        assert lines == sorted(lines)
        assert data.endswith(b".\n") or data.endswith(b" .\n")
        assert any("/prop/foundedBy>" in line and "james-harper" in line for line in lines)

    def test_parse_then_render_is_a_fixed_point(self, figure_eg):
        first = export_ntriples(figure_eg)
        reparsed = parse_ntriples(first)
        assert render_ntriples(reparsed) == first

    def test_literal_escapes_round_trip(self, figure_eg):
        tricky = Triple(
            Iri("https://ex.org/du/X/a"),
            Iri("https://ex.org/du/prop/note"),
            Literal('line"one\\\nline\ttwo', "string"),
        )
        data = render_ntriples([tricky])
        assert parse_ntriples(data) == (tricky,)

    def test_double_export_identical(self, figure_eg):
        assert export_ntriples(figure_eg) == export_ntriples(figure_eg)


A, P, B = "<https://ex.org/du/a>", "<https://ex.org/du/prop/p>", "<https://ex.org/du/b>"
STRING = "<http://www.w3.org/2001/XMLSchema#string>"
MALFORMED_LINES = {
    f"{A} {P} {B}": "missing terminating dot",
    f"{A} {P} {B} . x": "missing terminating dot",
    f'"x"^^{STRING} {P} {B} .': "subject/predicate must be IRIs",
    f'{A} {P} "x .': "unterminated literal",
    f'{A} {P} "a\\qb"^^{STRING} .': "bad escape \\q in literal",
    f'{A} {P} "x" .': "literal missing ^^<datatype>",
    f'{A} {P} "x"^^<http://ex.org/dt> .': "unsupported literal datatype 'http://ex.org/dt'",
    f"{A} {P} x .": "unexpected term at column 49: 'x .'",
    f"{A}>{P}x{B} .": "expected a space or a tab at column 21, found '>'",
    f"{A} {P}x{B} .": "expected a space or a tab at column 48, found 'x'",
    f"{A} <no iri> {B} .":
        "invalid IRI (expected scheme://authority/path, no spaces): 'no iri'",
    f'{A} <bad p> "a\\qb"^^{STRING} .':
        "invalid IRI (expected scheme://authority/path, no spaces): 'bad p'",
    "<https://ex.org/du/a": "unterminated IRI at column 0",
    f"{A} {P} <https://ex.org/du/b .": "unterminated IRI at column 49",
    f'{A} {P} "x"^^<http://www.w3.org/2001/XMLSchema#string .': "unterminated IRI at column 54",
    A: "expected a space or a tab at column 21, found end of line",
    f"{A} {P}": "expected a space or a tab at column 48, found end of line",
}


@pytest.mark.parametrize("line", MALFORMED_LINES)
def test_malformed_ntriples_line_names_its_line_and_fault(line):
    with pytest.raises(FormatError) as caught:
        parse_ntriples(f"{A} {P} {B} .\n\n{line}\n")
    assert str(caught.value) == f"line 3: {MALFORMED_LINES[line]}"


def test_ntriples_lines_may_space_their_terms_loosely():
    """A tab for a space, and any space around the dot or the line."""
    ab = Triple(Iri(A[1:-1]), Iri(P[1:-1]), Iri(B[1:-1]))
    empty = Triple(Iri(A[1:-1]), Iri(P[1:-1]), Literal("", "string"))
    assert parse_ntriples(f"{A}\t{P}\t{B}.\n {A} {P} {B}\t.") == (ab, ab)
    assert parse_ntriples(f'  {A} {P} ""^^{STRING}   .  ') == (empty,)


class TestJsonGraph:
    def test_empty_graph_is_metadata_only(self):
        payload = json.loads(export_jsongraph(empty_eg()))
        assert payload["metadata"]["counts"] == {"entities": 0, "triples": 0}
        assert payload["entities"] == []
        assert payload["links"] == []

    def test_fixture_contents(self, figure_eg):
        payload = json.loads(export_jsongraph(figure_eg))
        assert list(payload) == ["metadata", "entities", "links"]
        assert list(payload["metadata"]) == ["iri", "timestamp", "sources", "counts"]
        types = {e["type"] for e in payload["entities"]}
        assert types == {"Person", "Organization", "Place", "Publication"}
        assert len(payload["entities"]) == 5
        iris = [e["iri"] for e in payload["entities"]]
        assert iris == sorted(iris)

    def test_round_trip_and_determinism(self, figure_eg):
        data = export_jsongraph(figure_eg)
        assert data == export_jsongraph(figure_eg)
        loaded = load_entity_graph_json(data)
        assert loaded == figure_eg
        assert export_jsongraph(loaded) == data

    def test_iri_typed_values_round_trip_as_links(self, du_ontology, tables):
        etg_document = json.loads(fixture_text("du.etg.json"))
        etg_document["data_properties"].append(
            {"name": "homepage", "domain": "Entity", "datatype": "iri"}
        )
        schema_graph, _ = ground(
            du_ontology, load_etg(json.dumps(etg_document)), {"en-book-1": "Publication"}
        )
        spec_document = json.loads(fixture_text("du.mapping.json"))
        spec_document["datasets"][1]["data_maps"].append(
            {"column": "homepage", "property": "homepage", "datatype": "iri"}
        )
        spec = load_mapping_spec(json.dumps(spec_document), schema_graph)
        people = [
            dict(row, homepage=f"https://ex.org/home/{row['id']}") for row in tables["people"]
        ]
        graph, findings = build_entity_graph(
            schema_graph, spec, dict(tables, people=people), BASE, AT
        )
        assert findings == []
        assert len(graph.triples) == 18
        data = export_jsongraph(graph)
        payload = json.loads(data)
        assert all(v["datatype"] != "iri" for e in payload["entities"] for v in e["values"])
        assert sum(link["property"] == "homepage" for link in payload["links"]) == 2
        loaded = load_entity_graph_json(data)
        assert loaded == graph
        assert export_jsongraph(loaded) == data


def _first_value(payload):
    return payload["entities"][0]["values"][0]


HARPER = "https://ex.org/du/Organization/harper-row"
ENTITY = f"entity graph: entity {HARPER}"
LINK = f"entity graph: link from {HARPER}"

MALFORMED = {
    "non-string value": (
        lambda p: _first_value(p).update(value=5), f"{ENTITY}: 'value' must be a string"
    ),
    "non-string entity iri": (
        lambda p: p["entities"][0].update(iri=5), "entity graph: entity: 'iri' must be a string"
    ),
    "non-string type": (
        lambda p: p["entities"][0].update(type=["Person"]),
        "entity graph: entity: 'type' must be a string",
    ),
    "non-string property": (
        lambda p: _first_value(p).update(property=None), f"{ENTITY}: 'property' must be a string"
    ),
    "non-string datatype": (
        lambda p: _first_value(p).update(datatype=1), f"{ENTITY}: 'datatype' must be a string"
    ),
    "non-string link object": (
        lambda p: p["links"][0].update(object={}), "entity graph: link: 'object' must be a string"
    ),
    "sources as a string": (
        lambda p: p["metadata"].update(sources="abc"),
        "entity graph: metadata: 'sources' must be a list of strings",
    ),
    "non-string source": (
        lambda p: p["metadata"].update(sources=["books", 5]),
        "entity graph: metadata: 'sources' must be a list of strings",
    ),
    "entity listed twice": (
        lambda p: p["entities"].append(p["entities"][0]), f"{ENTITY} is listed more than once"
    ),
    "IRI under values": (
        lambda p: _first_value(p).update(datatype="iri", value="https://ex.org/home"),
        f"{ENTITY}: IRI values belong under 'links', not 'values'",
    ),
    "type as a link": (
        lambda p: p["links"][0].update(property="type"),
        f"{LINK}: types belong to entities, not links",
    ),
    "unknown datatype": (
        lambda p: _first_value(p).update(datatype="float"),
        f"{ENTITY}: literal datatype 'float' is not one of ('string', 'integer', 'date')",
    ),
    "missing links": (lambda p: p.pop("links"), "entity graph: missing key 'links'"),
    "unknown metadata key": (
        lambda p: p["metadata"].update(extra=1), "entity graph: metadata: unknown keys ['extra']"
    ),
    "unknown value key": (
        lambda p: _first_value(p).update(lang="en"), f"{ENTITY}: unknown keys ['lang']"
    ),
    "counts not counting": (
        lambda p: p["metadata"]["counts"].update(triples="many"),
        "entity graph: counts: 'triples' must be an integer",
    ),
    "invalid entity iri": (
        lambda p: p["entities"][0].update(iri="no-scheme"),
        "entity graph: entity no-scheme:"
        " invalid IRI (expected scheme://authority/path, no spaces): 'no-scheme'",
    ),
    "invalid property name": (
        lambda p: p["links"][0].update(property="founded by"),
        f"{LINK}: identifier 'founded by': character ' ' illegal at index 7",
    ),
    "invalid timestamp": (
        lambda p: p["metadata"].update(timestamp="2024-01-01"),
        "entity graph: metadata: invalid timestamp '2024-01-01': expected YYYY-MM-DDTHH:MM:SSZ",
    ),
    "type as a value": (
        lambda p: _first_value(p).update(property="type"),
        f"{ENTITY}: types belong to entities, not values",
    ),
    "value listed twice": (
        lambda p: p["entities"][0]["values"].append(_first_value(p)),
        f"{ENTITY}: string value 'Harper & Row' of 'name' is listed more than once",
    ),
    "link listed twice": (
        lambda p: p["links"].append(p["links"][0]),
        f"{LINK}: link 'foundedBy' to https://ex.org/du/Person/james-harper"
        " is listed more than once",
    ),
    "link from an unlisted subject": (
        lambda p: p["links"][0].update(subject="https://ex.org/du/Organization/gone"),
        "entity graph: link from https://ex.org/du/Organization/gone:"
        " subject is not a listed entity",
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_json_graph_is_a_format_error(figure_eg, case):
    mutate, message = MALFORMED[case]
    payload = json.loads(export_jsongraph(figure_eg))
    mutate(payload)
    with pytest.raises(FormatError) as caught:
        load_entity_graph_json(json.dumps(payload))
    assert str(caught.value) == message


def test_the_first_fault_in_document_order_is_reported(figure_eg):
    """Entities, each with its values, then links: the first bad object
    names the fault, whichever check finds it."""
    payload = json.loads(export_jsongraph(figure_eg))
    payload["links"][0].update(property="type")
    payload["entities"][1]["values"][0].update(value=5)
    payload["entities"][0].update(type="not a type")
    with pytest.raises(FormatError) as caught:
        load_entity_graph_json(json.dumps(payload))
    assert str(caught.value) == (
        f"{ENTITY}: identifier 'not a type': character ' ' illegal at index 3"
    )
    payload["entities"][0].update(type="Organization")
    with pytest.raises(FormatError) as caught:
        load_entity_graph_json(json.dumps(payload))
    assert str(caught.value) == (
        "entity graph: entity https://ex.org/du/Person/james-harper: 'value' must be a string"
    )


def test_link_objects_outside_the_graph_load(figure_eg):
    payload = json.loads(export_jsongraph(figure_eg))
    payload["links"][0].update(object="https://ex.org/elsewhere/x")
    graph = load_entity_graph_json(json.dumps(payload))
    assert Iri("https://ex.org/elsewhere/x") in {t.object for t in graph.triples}
    assert len(graph.triples) == len(figure_eg.triples)


class TestFca:
    def test_empty_graph_is_header_only(self):
        data = export_fca(empty_eg()).decode()
        rows = list(csv.reader(io.StringIO(data)))
        assert rows == [["entity"]]

    def test_incidence_for_organization(self, figure_eg):
        rows = list(csv.reader(io.StringIO(export_fca(figure_eg).decode())))
        header, body = rows[0], rows[1:]
        harper = next(r for r in body if r[0].endswith("/Organization/harper-row"))
        incidence = dict(zip(header[1:], harper[1:]))
        assert incidence["headquarteredIn"] == "1"
        assert incidence["foundedBy"] == "1"
        assert incidence["type:Organization"] == "1"
        assert incidence["type:Person"] == "0"
        assert incidence["title"] == "0"

    def test_matrix_dimensions(self, figure_eg):
        rows = list(csv.reader(io.StringIO(export_fca(figure_eg).decode())))
        header, body = rows[0], rows[1:]
        used_properties = {
            t.predicate.value.rsplit("/", 1)[1]
            for t in figure_eg.triples
            if not t.predicate.value.endswith("/type")
        }
        used_types = {e.type for e in figure_eg.entities}
        assert len(body) == len(figure_eg.entities)
        assert len(header) - 1 == len(used_properties) + len(used_types)

    def test_double_export_identical(self, figure_eg):
        assert export_fca(figure_eg) == export_fca(figure_eg)


class TestAgainstOracles:
    """The exporters give the bytes of their first, term-by-term forms."""

    @pytest.mark.parametrize("loadable", [False, True])
    def test_random_graphs_export_byte_for_byte(self, loadable):
        rng = random.Random(8)
        for _ in range(300):
            graph = random_export_graph(rng, loadable)
            shuffled = replace(graph, triples=tuple(rng.sample(graph.triples, len(graph.triples))))
            for case in (graph, shuffled):
                assert export_ntriples(case) == oracle_render_ntriples(case.triples)
                assert export_jsongraph(case) == oracle_export_jsongraph(case)
                assert export_fca(case) == oracle_export_fca(case)
            for triple in graph.triples:
                assert render_term(triple.object) == oracle_render_term(triple.object)

    def test_random_graphs_round_trip_through_both_loaders(self):
        rng = random.Random(9)
        for _ in range(300):
            graph = random_export_graph(rng, loadable=True)
            assert load_entity_graph_json(export_jsongraph(graph)) == graph
            parsed = parse_ntriples(export_ntriples(graph))
            assert sorted(parsed, key=lambda t: t.sort_key()) == list(graph.triples)

    def test_fixture_exports_byte_for_byte(self, figure_eg):
        assert export_ntriples(figure_eg) == oracle_render_ntriples(figure_eg.triples)
        assert export_jsongraph(figure_eg) == oracle_export_jsongraph(figure_eg)
        assert export_fca(figure_eg) == oracle_export_fca(figure_eg)


class TestEntityView:
    """``entities`` and the JSON and FCA exports read one view of a graph's
    entities, built from its triples once."""

    @staticmethod
    def count_builds(monkeypatch) -> list:
        """The graphs whose ``entity_view`` is built from now on."""
        builds = []
        build = EntityGraph.__dict__["entity_view"].func

        def counted(graph):
            builds.append(graph)
            return build(graph)

        view = cached_property(counted)
        view.__set_name__(EntityGraph, "entity_view")
        monkeypatch.setattr(EntityGraph, "entity_view", view)
        return builds

    def test_entities_and_both_exports_build_it_once(self, figure_eg, monkeypatch):
        builds = self.count_builds(monkeypatch)
        graph = replace(figure_eg)
        json_text, fca = export_jsongraph(graph), export_fca(graph)
        assert graph.entities == figure_eg.entities
        assert (export_jsongraph(graph), export_fca(graph)) == (json_text, fca)
        assert len(builds) == 1 and builds[0] is graph

    def test_builds_loaders_and_queries_never_build_it(
        self, schema_graph, mapping_spec, tables, figure_eg, monkeypatch
    ):
        json_text, lines = export_jsongraph(figure_eg), export_ntriples(figure_eg)
        builds = self.count_builds(monkeypatch)
        built, _ = build_entity_graph(schema_graph, mapping_spec, tables, BASE, AT)
        loaded = load_entity_graph_json(json_text)
        parsed = replace(built, triples=parse_ntriples(lines))
        for graph in (built, loaded, parsed):
            for text in ("?x <author> ?y . ?y <name> ?n .", "?x ?p <harper-row> ."):
                assert run_query(graph, parse_query_text(text, graph)).rows
        assert builds == []

    def test_a_replaced_graph_has_its_own_view(self, figure_eg):
        graph = replace(figure_eg)
        view = graph.entity_view
        again, fewer = replace(graph), replace(graph, triples=graph.triples[1:])
        assert "entity_view" not in again.__dict__ and "entity_view" not in fewer.__dict__
        assert again.entity_view == view and again.entity_view is not view
        assert fewer.entity_view != view

    def test_the_view_takes_no_part_in_equality(self, figure_eg):
        graph = replace(figure_eg)
        assert graph.entity_view and "entity_view" in graph.__dict__
        assert graph == replace(figure_eg) and hash(graph) == hash(figure_eg)
        assert repr(graph) == repr(figure_eg) and "entity_view" not in repr(graph)

    def test_the_last_type_triple_of_a_subject_wins(self):
        rng = random.Random(10)
        for _ in range(200):
            graph = random_export_graph(rng)
            shuffled = replace(graph, triples=tuple(rng.sample(graph.triples, len(graph.triples))))
            for case in (graph, shuffled):
                types = {
                    t.subject.value: t.object.value.rsplit("/", 1)[1]
                    for t in case.triples
                    if t.predicate.value == "https://ex.org/du/prop/type"
                }
                assert case.entities == tuple(Entity(Iri(s), types[s]) for s in sorted(types))
