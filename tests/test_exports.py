from __future__ import annotations

import csv
import io
import json
import re
from datetime import datetime, timezone

import pytest

from facetforge import build_entity_graph, ground, load_etg, load_mapping_spec
from facetforge.core import FormatError, Iri
from facetforge.eg import EntityGraph
from facetforge.exports import (
    export_fca,
    export_jsongraph,
    export_ntriples,
    load_entity_graph_json,
    parse_ntriples,
    render_ntriples,
)
from facetforge.fixtures import fixture_text
from helpers import AT, BASE


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
        from facetforge.eg import Literal, Triple

        tricky = Triple(
            Iri("https://ex.org/du/X/a"),
            Iri("https://ex.org/du/prop/note"),
            Literal('line"one\\\nline\ttwo', "string"),
        )
        data = render_ntriples([tricky])
        assert parse_ntriples(data) == (tricky,)

    def test_double_export_identical(self, figure_eg):
        assert export_ntriples(figure_eg) == export_ntriples(figure_eg)


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


MALFORMED = {
    "non-string value": (lambda p: _first_value(p).update(value=5), "'value' must be a string"),
    "non-string entity iri": (lambda p: p["entities"][0].update(iri=5), "'iri' must be a string"),
    "non-string type": (
        lambda p: p["entities"][0].update(type=["Person"]), "'type' must be a string"
    ),
    "non-string property": (
        lambda p: _first_value(p).update(property=None), "'property' must be a string"
    ),
    "non-string datatype": (
        lambda p: _first_value(p).update(datatype=1), "'datatype' must be a string"
    ),
    "non-string link object": (
        lambda p: p["links"][0].update(object={}), "'object' must be a string"
    ),
    "sources as a string": (lambda p: p["metadata"].update(sources="abc"), "list of strings"),
    "non-string source": (
        lambda p: p["metadata"].update(sources=["books", 5]), "list of strings"
    ),
    "entity listed twice": (
        lambda p: p["entities"].append(p["entities"][0]), "listed more than once"
    ),
    "IRI under values": (
        lambda p: _first_value(p).update(datatype="iri", value="https://ex.org/home"),
        "belong under 'links'",
    ),
    "type as a link": (lambda p: p["links"][0].update(property="type"), "types belong to entities"),
    "unknown datatype": (lambda p: _first_value(p).update(datatype="float"), "literal datatype"),
    "missing links": (lambda p: p.pop("links"), "'links'"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_json_graph_is_a_format_error(figure_eg, case):
    mutate, message = MALFORMED[case]
    payload = json.loads(export_jsongraph(figure_eg))
    mutate(payload)
    with pytest.raises(FormatError, match=re.escape(message)):
        load_entity_graph_json(json.dumps(payload))


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
