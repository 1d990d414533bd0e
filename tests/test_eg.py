from __future__ import annotations

import json

import pytest

from facetforge.core import FormatError, Iri
from facetforge.eg import (
    DanglingLinkError,
    Literal,
    Triple,
    build_entity_graph,
    ingest_dataset,
    load_mapping_spec,
    read_table,
)
from facetforge.exports import export_jsongraph, load_entity_graph_json
from facetforge.fixtures import fixture_text
from helpers import AT, BASE


def mapping_document(**overrides):
    data = json.loads(fixture_text("du.mapping.json"))
    data.update(overrides)
    return data


class TestLoadMappingSpec:
    def test_fixture_validates(self, mapping_spec):
        assert [d.id for d in mapping_spec.datasets] == ["books", "people", "orgs", "places"]
        books = mapping_spec.dataset("books")
        assert books.entity_type == "Publication"
        assert books.dangling_policy == "error"

    def test_property_not_on_type_rejected(self, schema_graph):
        data = mapping_document()
        data["datasets"][0]["data_maps"].append(
            {"column": "colour", "property": "colour", "datatype": "string"}
        )
        with pytest.raises(FormatError, match="'colour' is not an effective data property"):
            load_mapping_spec(json.dumps(data), schema_graph)

    def test_datatype_must_match_declaration(self, schema_graph):
        data = mapping_document()
        data["datasets"][0]["data_maps"][1]["datatype"] = "string"
        with pytest.raises(FormatError, match="declared 'date'"):
            load_mapping_spec(json.dumps(data), schema_graph)

    def test_empty_datasets_rejected(self, schema_graph):
        with pytest.raises(FormatError, match="empty"):
            load_mapping_spec(json.dumps({"datasets": []}), schema_graph)

    def test_link_target_outside_range_rejected(self, schema_graph):
        data = mapping_document()
        data["datasets"][0]["link_maps"][0]["target"] = "orgs"
        with pytest.raises(FormatError, match="outside range 'Person'"):
            load_mapping_spec(json.dumps(data), schema_graph)


class TestIngest:
    def test_books_row_is_typed(self, mapping_spec, tables):
        rows, findings = ingest_dataset(mapping_spec.dataset("books"), tables["books"])
        assert findings == []
        (row,) = rows
        assert row.id == "b1"
        values = dict(row.values)
        assert values["datePublished"] == Literal("1973-01-01", "date")
        assert values["numberOfPages"] == Literal("290", "integer")
        assert values["title"].text.startswith("Bibliography on the tropical disease")
        assert set(row.links) == {
            ("author", "people", "schumacher"),
            ("publisher", "orgs", "harper-row"),
        }

    def test_cast_failure_drops_cell_with_warning(self, mapping_spec, tables):
        broken = [dict(tables["books"][0], pages="many")]
        rows, findings = ingest_dataset(mapping_spec.dataset("books"), broken)
        assert [(f.code, f.severity) for f in findings] == [("IG1", "warning")]
        assert "numberOfPages" not in dict(rows[0].values)

    def test_duplicate_id_is_an_error_finding(self, mapping_spec, tables):
        doubled = [tables["books"][0], dict(tables["books"][0])]
        rows, findings = ingest_dataset(mapping_spec.dataset("books"), doubled)
        assert [(f.code, f.severity) for f in findings] == [("IG2", "error")]
        assert len(rows) == 1

    def test_missing_id_column_rejected(self, mapping_spec):
        with pytest.raises(ValueError, match="id column 'id' missing"):
            ingest_dataset(mapping_spec.dataset("books"), [{"title": "x"}])

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="no header"):
            read_table("", "csv")

    def test_json_table_accepted(self, mapping_spec):
        table = read_table(json.dumps([{"id": "p9", "name": "Nobody"}]), "json")
        rows, findings = ingest_dataset(mapping_spec.dataset("people"), table)
        assert findings == []
        assert rows[0].id == "p9"


class TestBuild:
    def test_figure_relations_present(self, figure_eg):
        def iri(*segments):
            return Iri(BASE.value + "/" + "/".join(segments))

        triple_set = {(t.subject, t.predicate, t.object) for t in figure_eg.triples}
        prop = lambda name: iri("prop", name)
        assert (iri("Publication", "b1"), prop("author"), iri("Person", "schumacher")) in triple_set
        assert (iri("Publication", "b1"), prop("publisher"), iri("Organization", "harper-row")) in triple_set
        assert (iri("Organization", "harper-row"), prop("headquarteredIn"), iri("Place", "manhattan")) in triple_set
        assert (iri("Organization", "harper-row"), prop("foundedBy"), iri("Person", "james-harper")) in triple_set
        assert (iri("Organization", "harper-row"), prop("type"), iri("type", "Organization")) in triple_set
        assert (iri("Publication", "b1"), prop("datePublished"), Literal("1973-01-01", "date")) in triple_set

    def test_counts_follow_the_formula(self, figure_eg, mapping_spec, tables):
        row_count = sum(len(table) for table in tables.values())
        typed_cells = 7  # title, date, pages + four name columns
        resolved_links = 4
        assert len(figure_eg.entities) == row_count
        assert len(figure_eg.triples) == row_count + typed_cells + resolved_links

    def test_referential_closure(self, figure_eg):
        entity_iris = {e.iri for e in figure_eg.entities}
        namespaces = {f"{BASE.value}/{e.type}/" for e in figure_eg.entities}
        for triple in figure_eg.triples:
            assert triple.subject in entity_iris
            if isinstance(triple.object, Iri) and any(
                triple.object.value.startswith(ns) for ns in namespaces
            ):
                assert triple.object in entity_iris

    def test_single_type_triple_per_entity(self, figure_eg, schema_graph):
        type_predicate = Iri(BASE.value + "/prop/type")
        type_index = schema_graph.etg.type_index()
        by_subject: dict[str, int] = {}
        for triple in figure_eg.triples:
            if triple.predicate == type_predicate:
                by_subject[triple.subject.value] = by_subject.get(triple.subject.value, 0) + 1
        assert set(by_subject) == {e.iri.value for e in figure_eg.entities}
        assert set(by_subject.values()) == {1}
        for entity in figure_eg.entities:
            assert entity.type in type_index

    def test_empty_datasets_build_valid_empty_graph(self, schema_graph, mapping_spec):
        empty = {d.id: [] for d in mapping_spec.datasets}
        graph, findings = build_entity_graph(schema_graph, mapping_spec, empty, BASE, AT)
        assert findings == []
        assert graph.entities == ()
        assert graph.triples == ()
        assert graph.iri.value == "https://ex.org/du/eg/2024-01-01T00-00-00Z"
        assert graph.sources == ("books", "people", "orgs", "places")

    def test_dataset_mismatch_rejected(self, schema_graph, mapping_spec, tables):
        partial = {k: v for k, v in tables.items() if k != "places"}
        with pytest.raises(ValueError, match="do not match the mapping spec"):
            build_entity_graph(schema_graph, mapping_spec, partial, BASE, AT)

    def test_dangling_link_error_policy(self, schema_graph, mapping_spec, tables):
        broken = dict(tables, orgs=[dict(tables["orgs"][0], founder="nobody")])
        with pytest.raises(DanglingLinkError) as exc:
            build_entity_graph(schema_graph, mapping_spec, broken, BASE, AT)
        assert exc.value.finding.code == "LK1"

    def test_dangling_link_policies(self, schema_graph, tables):
        for policy, code in (("skip", "LK2"), ("stub", "LK3")):
            data = mapping_document()
            for entry in data["datasets"]:
                entry["dangling_policy"] = policy
            spec = load_mapping_spec(json.dumps(data), schema_graph)
            broken = dict(tables, orgs=[dict(tables["orgs"][0], founder="nobody")])
            graph, findings = build_entity_graph(schema_graph, spec, broken, BASE, AT)
            assert [f.code for f in findings] == [code]
            stub_iri = Iri(BASE.value + "/Person/nobody")
            stubbed = {e.iri for e in graph.entities}
            if policy == "stub":
                assert stub_iri in stubbed
                stub_triples = [t for t in graph.triples if t.subject == stub_iri]
                type_triple = Triple(
                    stub_iri, Iri(BASE.value + "/prop/type"), Iri(BASE.value + "/type/Person")
                )
                assert stub_triples == [type_triple]
            else:
                assert stub_iri not in stubbed

    def test_cross_dataset_id_collision_is_an_error_finding(
        self, schema_graph, tables, figure_eg
    ):
        data = mapping_document()
        data["datasets"].append(dict(data["datasets"][1], id="people2"))
        spec = load_mapping_spec(json.dumps(data), schema_graph)
        extra = dict(tables, people2=[{"id": "schumacher", "name": "Fritz Schumacher"}])
        graph, findings = build_entity_graph(schema_graph, spec, extra, BASE, AT)
        assert [(f.code, f.severity, f.path) for f in findings] == [
            ("IG3", "error", "people2/schumacher")
        ]
        assert graph.triples == figure_eg.triples
        assert load_entity_graph_json(export_jsongraph(graph)) == graph

    def test_stub_of_an_iri_another_dataset_mints_adds_no_type(self, schema_graph, tables):
        data = mapping_document()
        data["datasets"].append(dict(data["datasets"][1], id="people2"))
        for entry in data["datasets"]:
            entry["dangling_policy"] = "stub"
        spec = load_mapping_spec(json.dumps(data), schema_graph)
        broken = dict(
            tables,
            orgs=[dict(tables["orgs"][0], founder="nobody")],
            people2=[{"id": "nobody", "name": "No Body"}],
        )
        graph, findings = build_entity_graph(schema_graph, spec, broken, BASE, AT)
        assert [f.code for f in findings] == ["LK3"]
        nobody = Iri(BASE.value + "/Person/nobody")
        type_predicate = Iri(BASE.value + "/prop/type")
        assert [t.object for t in graph.triples if t.subject == nobody] == [
            Literal("No Body", "string"),
            Iri(BASE.value + "/type/Person"),
        ]
        assert sum(t.predicate == type_predicate for t in graph.triples) == len(graph.entities)

    def test_build_is_deterministic(self, schema_graph, mapping_spec, tables, figure_eg):
        again, findings = build_entity_graph(schema_graph, mapping_spec, tables, BASE, AT)
        assert findings == []
        assert again == figure_eg
