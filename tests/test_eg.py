from __future__ import annotations

import copy
import hashlib
import json
import pickle
import random
from collections import Counter
from dataclasses import replace

import pytest

from facetforge.core import FormatError, Iri, Label, mint_iri
from facetforge.eg import (
    DanglingLinkError,
    DataMap,
    DatasetMapping,
    LinkMap,
    Literal,
    MappingSpec,
    Triple,
    build_entity_graph,
    canonical_order,
    ingest_dataset,
    load_mapping_spec,
    read_table,
)
from facetforge.etg import DataProperty, EntityType, ground, load_etg
from facetforge.exports import (
    export_fca,
    export_jsongraph,
    export_ntriples,
    load_entity_graph_json,
    parse_ntriples,
)
from facetforge.fixtures import fixture_text
from helpers import (
    AT,
    BASE,
    oracle_build_entity_graph,
    oracle_ingest_dataset,
    random_faulty_spec,
    random_faulty_tables,
)


def mapping_document(**overrides):
    data = json.loads(fixture_text("du.mapping.json"))
    data.update(overrides)
    return data


class TestTripleContract:
    S = Iri("https://ex.org/du/Publication/b1")
    P = Iri("https://ex.org/du/prop/title")
    O = Literal("Small", "string")

    def test_a_named_tuple_of_three_terms(self):
        triple = Triple(self.S, self.P, self.O)
        assert Triple._fields == ("subject", "predicate", "object")
        assert (triple.subject, triple.predicate, triple.object) == (self.S, self.P, self.O)
        assert repr(triple) == (
            "Triple(subject=Iri(value='https://ex.org/du/Publication/b1'),"
            " predicate=Iri(value='https://ex.org/du/prop/title'),"
            " object=Literal(text='Small', datatype='string'))"
        )
        assert triple == Triple(subject=self.S, predicate=self.P, object=self.O)
        assert triple == (self.S, self.P, self.O)
        assert hash(triple) == hash((self.S, self.P, self.O))
        assert triple._replace(object=self.S) == Triple(self.S, self.P, self.S)
        with pytest.raises(AttributeError):
            triple.subject = self.P

    def test_sort_key(self):
        assert Triple(self.S, self.P, self.O).sort_key() == (
            self.S.value, self.P.value, ("lit", "string", "Small")
        )
        assert Triple(self.S, self.P, self.S).sort_key() == (
            self.S.value, self.P.value, ("iri", self.S.value, "")
        )

    def test_both_loaders_give_back_triples(self, figure_eg):
        loaded = load_entity_graph_json(export_jsongraph(figure_eg))
        parsed = parse_ntriples(export_ntriples(figure_eg))
        assert loaded.triples == figure_eg.triples
        assert sorted(parsed, key=Triple.sort_key) == list(figure_eg.triples)
        for triples in (figure_eg.triples, loaded.triples, parsed):
            assert {type(t) for t in triples} == {Triple}


def canonical(triples):
    return sorted(triples, key=Triple.sort_key)


class TestCanonicalOrder:
    """Builds and both loaders give ``Triple.sort_key`` order, also where a
    predicate carries objects of two kinds, so tuple order is not it."""

    @pytest.fixture(scope="class")
    def mixed_graph(self, du_ontology, tables):
        """``home`` is a string on people and a link from places; ``code``
        is a string on people and an integer on places."""
        etg_document = json.loads(fixture_text("du.etg.json"))
        etg_document["data_properties"] += [
            {"name": "home", "domain": "Person", "datatype": "string"},
            {"name": "code", "domain": "Person", "datatype": "string"},
            {"name": "code", "domain": "Place", "datatype": "integer"},
        ]
        etg_document["object_properties"].append(
            {"name": "home", "domain": "Place", "range": "Person"}
        )
        schema_graph, _ = ground(
            du_ontology, load_etg(json.dumps(etg_document)), {"en-book-1": "Publication"}
        )
        spec_document = mapping_document()
        people, places = spec_document["datasets"][1], spec_document["datasets"][3]
        people["data_maps"] += [
            {"column": "home", "property": "home", "datatype": "string"},
            {"column": "code", "property": "code", "datatype": "string"},
        ]
        places["data_maps"].append({"column": "code", "property": "code", "datatype": "integer"})
        places["link_maps"] = [{"column": "home", "property": "home", "target": "people"}]
        spec = load_mapping_spec(json.dumps(spec_document), schema_graph)
        graph, findings = build_entity_graph(
            schema_graph, spec,
            dict(
                tables,
                people=[dict(row, home="zz", code="x") for row in tables["people"]],
                places=[dict(row, home="schumacher", code="7") for row in tables["places"]],
            ),
            BASE, AT,
        )
        assert findings == []
        return graph

    def test_build_and_loaders_on_mixed_predicates(self, mixed_graph):
        kinds = {
            (t.predicate.value.rsplit("/", 1)[1], getattr(t.object, "datatype", "iri"))
            for t in mixed_graph.triples
        }
        assert {("home", "string"), ("home", "iri")} <= kinds
        assert {("code", "string"), ("code", "integer")} <= kinds
        assert list(mixed_graph.triples) == canonical(mixed_graph.triples)
        assert load_entity_graph_json(export_jsongraph(mixed_graph)) == mixed_graph
        parsed = parse_ntriples(export_ntriples(mixed_graph))
        assert canonical(parsed) == list(mixed_graph.triples)

    @pytest.mark.parametrize(
        "values",
        [
            # An IRI and a literal object of ``author``, and two datatypes of ``note``:
            # in tuple order the literal and the string come first.
            [{"property": "author", "datatype": "string", "value": "a"}],
            [
                {"property": "note", "datatype": "string", "value": "1"},
                {"property": "note", "datatype": "integer", "value": "2"},
            ],
        ],
    )
    def test_loaders_on_one_subject_with_two_kinds(self, figure_eg, values):
        payload = json.loads(export_jsongraph(figure_eg))
        payload["entities"][-1]["values"] += values
        loaded = load_entity_graph_json(json.dumps(payload))
        assert len(loaded.triples) == len(figure_eg.triples) + len(values)
        assert list(loaded.triples) == canonical(loaded.triples) != sorted(loaded.triples)
        parsed = parse_ntriples(export_ntriples(loaded))
        assert canonical(parsed) == list(loaded.triples)

    def test_canonical_order_sorts_by_tuple_only_with_one_kind_per_predicate(self):
        s, p = Iri("https://ex.org/du/X/s"), Iri("https://ex.org/du/prop/p")
        triples = [Triple(s, p, Literal("1", "string")), Triple(s, p, Literal("2", "integer"))]
        mixed = {("p", "string"), ("p", "integer")}
        assert list(canonical_order(triples, mixed)) == canonical(triples) == triples[::-1]
        single = [Triple(s, p, Literal(text, "string")) for text in "ba"]
        assert list(canonical_order(single, {("p", "string")})) == single[::-1]


class TestTermContract:
    """``Iri`` and ``Literal`` are validated named tuples: equal and hashed
    like the plain tuples of their fields, checked however they are made."""

    IRI = Iri("https://ex.org/du/Publication/b1")
    LITERAL = Literal("Small", "string")
    # SHA-256 of the fixture graph's exports, as written when the terms
    # were frozen dataclasses.
    FIXTURE_EXPORTS = {
        export_ntriples: "06f31a3a40bc9f0462d27136e05e2da59116739e682ef78213887d96bee63ce3",
        export_jsongraph: "0f599cb94a45920f287749d7019aba234b1ed6576e190b87d929969f8cbfba0f",
        export_fca: "21cf582e157e7bd0573c1b11de21732c6b80cbc8dc27845c0cef4406a4e86972",
    }

    def test_equal_and_hash_like_plain_tuples(self):
        assert Iri._fields == ("value",) and Literal._fields == ("text", "datatype")
        assert self.IRI == ("https://ex.org/du/Publication/b1",)
        assert hash(self.IRI) == hash(("https://ex.org/du/Publication/b1",))
        assert self.LITERAL == ("Small", "string")
        assert hash(self.LITERAL) == hash(("Small", "string"))
        assert Iri(self.IRI.value) == self.IRI and Iri(self.IRI.value) is not self.IRI
        assert Literal("Small", "integer") != self.LITERAL

    def test_never_equal_each_other_or_a_triple(self):
        text = self.IRI.value
        terms = [self.IRI, Literal(text, "string"), Triple(self.IRI, self.IRI, self.IRI)]
        for first in terms:
            for second in terms:
                assert (first == second) is (first is second)
        assert len(set(terms)) == 3

    def test_repr_str_and_fields(self):
        assert repr(self.IRI) == "Iri(value='https://ex.org/du/Publication/b1')"
        assert repr(self.LITERAL) == "Literal(text='Small', datatype='string')"
        assert str(self.IRI) == "https://ex.org/du/Publication/b1"
        assert (self.LITERAL.text, self.LITERAL.datatype) == ("Small", "string")
        for term in (self.IRI, self.LITERAL):
            assert type(term).__slots__ == () and not hasattr(term, "__dict__")
            with pytest.raises(AttributeError):
                term.extra = 1
        with pytest.raises(AttributeError):
            self.IRI.value = "https://ex.org/du/other"

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Iri("https://ex.org"),
            lambda: Iri(value="no scheme/path"),
            lambda: Iri._make(["https://ex org/du"]),
            lambda: Iri(42),
            lambda: TestTermContract.IRI._replace(value="http://"),
            lambda: Literal("x", "iri"),
            lambda: Literal(text="x", datatype="String"),
            lambda: Literal._make(["x", "float"]),
            lambda: TestTermContract.LITERAL._replace(datatype="iri"),
            lambda: Iri.many(["https://ex.org/du/a", "https://ex.org/du/b c"]),
            lambda: Iri.many(["https://ex.org/du/a\nhttps://ex.org/du/b"]),
            lambda: Iri.many(["https://ex.org/du/a", 42]),
            lambda: Literal.many(["x", "y"], ["string", "iri"]),
            lambda: Literal(5, "string"),
            lambda: Literal(text=None, datatype="string"),
            lambda: TestTermContract.LITERAL._replace(text=b"Small"),
            lambda: Literal.many(["x", 5], ["string", "string"]),
        ],
    )
    def test_every_construction_path_checks(self, make):
        with pytest.raises(
            ValueError, match="invalid IRI|literal datatype must be one of|literal text must be"
        ):
            make()

    def test_a_literal_of_text_that_is_not_a_string_is_refused(self):
        """No graph export could render it: ``render_term`` needs text."""
        with pytest.raises(ValueError) as caught:
            Literal(5, "string")
        assert str(caught.value) == "literal text must be a string, got 5"
        with pytest.raises(ValueError) as caught:
            Literal.many(["1", 2, "x"], ["integer", "integer", "iri"])
        assert str(caught.value) == "literal text must be a string, got 2"

    def test_many_makes_what_one_at_a_time_makes(self):
        values = ["https://ex.org/du/a", "http://x.y/é", "urn+x://h/p?q#f"]
        made = Iri.many(values)
        assert made == [Iri(value) for value in values] and Iri.many([]) == []
        assert {type(term) for term in made} == {Iri}
        literals = Literal.many(["1", "", "2024-01-01"], ["integer", "string", "date"])
        assert literals == [
            Literal("1", "integer"), Literal("", "string"), Literal("2024-01-01", "date")
        ]
        assert {type(term) for term in literals} == {Literal} and Literal.many([], []) == []
        with pytest.raises(ValueError) as caught:
            Iri.many(["https://ex.org/du/a", "bad one", "bad two"])
        assert "'bad one'" in str(caught.value)

    def test_copies_and_pickles_check_and_give_back_equal_terms(self):
        forged = [
            tuple.__new__(Iri, ("not an IRI",)), tuple.__new__(Literal, ("x", "iri")),
            tuple.__new__(Literal, (5, "integer")),
        ]
        rebuilds = [copy.copy, copy.deepcopy] + [
            lambda term, protocol=protocol: pickle.loads(pickle.dumps(term, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for rebuild in rebuilds:
            for term in (self.IRI, self.LITERAL):
                again = rebuild(term)
                assert again == term and type(again) is type(term)
            for term in forged:
                with pytest.raises(ValueError):
                    rebuild(term)

    def test_keyword_and_make_build_the_same_terms(self):
        assert Iri(value=self.IRI.value) == Iri._make([self.IRI.value]) == self.IRI
        assert Literal(text="Small", datatype="string") == Literal._make(self.LITERAL)
        assert self.LITERAL._replace(datatype="integer") == Literal("Small", "integer")
        assert type(self.IRI._replace(value="https://ex.org/du/x")) is Iri

    def test_fixture_exports_unchanged(self, figure_eg):
        for export, digest in self.FIXTURE_EXPORTS.items():
            assert hashlib.sha256(export(figure_eg)).hexdigest() == digest, export.__name__


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

    IN_CODE_FAULTS = {
        "undeclared data property": (
            lambda people: people["data_maps"].append(
                {"column": "web", "property": "homepage", "datatype": "iri"}
            ),
            "dataset people: property 'homepage' is not an effective data property of 'Person'",
        ),
        "undeclared object property": (
            lambda people: people["link_maps"].append(
                {"column": "employer", "property": "worksFor", "target": "orgs"}
            ),
            "dataset people: property 'worksFor' is not an effective object property of 'Person'",
        ),
        "datatype": (
            lambda people: people["data_maps"][0].update(datatype="integer"),
            "dataset people: property 'name' is declared 'string', not 'integer'",
        ),
        "policy": (
            lambda people: people.update(dangling_policy="ignore"),
            "dataset people: unknown dangling policy 'ignore'",
        ),
    }

    @pytest.mark.parametrize("fault", IN_CODE_FAULTS)
    def test_a_build_checks_a_spec_built_in_code_as_the_loader_does(
        self, fault, schema_graph, tables
    ):
        data = mapping_document()
        mutate, message = self.IN_CODE_FAULTS[fault]
        mutate(data["datasets"][1])
        with pytest.raises(FormatError) as loaded:
            load_mapping_spec(json.dumps(data), schema_graph)
        assert str(loaded.value) == message
        spec = MappingSpec(tuple(
            DatasetMapping(
                entry["id"], entry["type"], entry["id_column"],
                tuple(DataMap(**item) for item in entry["data_maps"]),
                tuple(LinkMap(**item) for item in entry["link_maps"]),
                entry["dangling_policy"],
            )
            for entry in data["datasets"]
        ))
        with pytest.raises(FormatError) as built:
            build_entity_graph(schema_graph, spec, tables, BASE, AT)
        assert str(built.value) == message


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

    @pytest.mark.parametrize(
        "cells", [{"pages": "1.5"}, {"pages": "https://ex.org/a/b"}, {"id": ""}]
    )
    def test_unknown_datatype_rejected_before_any_cell(self, mapping_spec, tables, cells):
        """A data map built in code with a datatype no ETG declares is
        refused as such, whatever its cells hold; it is not cast as an IRI."""
        entry = mapping_spec.dataset("books")
        entry = replace(entry, data_maps=tuple(
            replace(data_map, datatype="float") if data_map.column == "pages" else data_map
            for data_map in entry.data_maps
        ))
        with pytest.raises(ValueError) as raised:
            ingest_dataset(entry, [dict(tables["books"][0], **cells)])
        assert str(raised.value) == (
            "dataset books: property 'numberOfPages' has datatype 'float',"
            " not one of ('string', 'integer', 'date', 'iri')"
        )

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

    def test_a_stub_is_reported_once_at_its_smallest_path(self, schema_graph, tables):
        data = mapping_document()
        for entry in data["datasets"]:
            entry["dangling_policy"] = "stub"
        spec = load_mapping_spec(json.dumps(data), schema_graph)
        book = tables["books"][0]
        books = [dict(book, id=book_id, author="nobody") for book_id in ("b9", "b10", "b2")]
        for rows in (books, books[::-1]):
            graph, findings = build_entity_graph(
                schema_graph, spec, dict(tables, books=rows), BASE, AT
            )
            assert [(f.code, f.path) for f in findings] == [("LK3", "books/b10/author")]
            assert findings[0].message == (
                "link target 'nobody' not found in dataset 'people'; stub created"
            )
            nobody = Iri(BASE.value + "/Person/nobody")
            assert sum(t.object == nobody for t in graph.triples) == 3

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


class TestGraphIsASet:
    @staticmethod
    def build_with_alias(schema_graph, tables, aliases):
        data = mapping_document()
        data["datasets"][1]["data_maps"].append(
            {"column": "alias", "property": "name", "datatype": "string"}
        )
        spec = load_mapping_spec(json.dumps(data), schema_graph)
        people = [dict(row, alias=aliases.get(row["id"], row["name"])) for row in tables["people"]]
        return spec, build_entity_graph(schema_graph, spec, dict(tables, people=people), BASE, AT)

    def test_two_columns_on_one_property_emit_a_triple_once(self, schema_graph, tables, figure_eg):
        spec, (graph, findings) = self.build_with_alias(schema_graph, tables, {})
        assert findings == []
        assert [entry.shares_property for entry in spec.datasets] == [False, True, False, False]
        lines = export_ntriples(graph).decode().splitlines()
        assert len(lines) == len(set(lines)) == len(graph.triples)
        assert graph.triples == figure_eg.triples

    def test_cells_that_differ_still_give_two_triples(self, schema_graph, tables, figure_eg):
        _, (graph, _) = self.build_with_alias(schema_graph, tables, {"schumacher": "Fritz"})
        added = set(graph.triples) - set(figure_eg.triples)
        assert [t.object for t in added] == [Literal("Fritz", "string")]
        assert len(graph.triples) == len(figure_eg.triples) + 1


class TestMinting:
    """Entity IRIs are ``mint_iri(base, [type, id])``, whichever way a build makes them."""

    def test_subjects_and_link_targets_are_minted_from_type_and_id(self, schema_graph, tables):
        data = mapping_document()
        for entry in data["datasets"]:
            entry["dangling_policy"] = "stub"
        spec = load_mapping_spec(json.dumps(data), schema_graph)
        broken = dict(tables, orgs=[dict(tables["orgs"][0], founder="nobody")])
        graph, _ = build_entity_graph(schema_graph, spec, broken, BASE, AT)

        types = {entry.id: entry.entity_type for entry in spec.datasets}
        expected_subjects = {mint_iri(BASE, ["Person", "nobody"])}
        expected_links = set()
        for entry in spec.datasets:
            for row in broken[entry.id]:
                subject = mint_iri(BASE, [entry.entity_type, row["id"]])
                expected_subjects.add(subject)
                for link in entry.link_maps:
                    target = mint_iri(BASE, [types[link.target], row[link.column]])
                    expected_links.add((subject, link.property, target))
        assert {t.subject for t in graph.triples} == expected_subjects
        links = {
            (t.subject, t.predicate.value.rsplit("/", 1)[1], t.object)
            for t in graph.triples
            if isinstance(t.object, Iri) and not t.predicate.value.endswith("/prop/type")
        }
        assert links == expected_links

    def test_bad_row_id_message(self, schema_graph, mapping_spec, tables):
        broken = dict(tables, places=[dict(tables["places"][0], id="man hattan")])
        with pytest.raises(ValueError) as exc:
            build_entity_graph(schema_graph, mapping_spec, broken, BASE, AT)
        assert str(exc.value) == "identifier 'man hattan': character ' ' illegal at index 3"

    def test_bad_link_target_finding(self, schema_graph, mapping_spec, tables):
        broken = dict(tables, books=[dict(tables["books"][0], author="e.f./schumacher")])
        _, findings = build_entity_graph(schema_graph, mapping_spec, broken, BASE, AT)
        assert [f.render() for f in findings] == [
            "warning IG1 books/b1/author: identifier 'e.f./schumacher':"
            " character '/' illegal at index 4"
        ]

    def test_directly_built_etg_names_must_be_identifiers(
        self, du_etg, du_ontology, tables
    ):
        cases = {
            "type": (
                replace(
                    du_etg,
                    types=(*du_etg.types, EntityType("Bad Type", Label("Odd"), "Entity", ("odd",))),
                ),
                {"id": "odd", "type": "Bad Type", "id_column": "id"},
                "identifier 'Bad Type': character ' ' illegal at index 3",
            ),
            "property": (
                replace(
                    du_etg,
                    data_properties=(
                        *du_etg.data_properties, DataProperty("full name", "Entity", "string")
                    ),
                ),
                {
                    "id": "odd",
                    "type": "Person",
                    "id_column": "id",
                    "data_maps": [{"column": "name", "property": "full name", "datatype": "string"}],
                },
                "identifier 'full name': character ' ' illegal at index 4",
            ),
        }
        for case, (etg, dataset, message) in cases.items():
            schema_graph, _ = ground(du_ontology, etg, {"en-book-1": "Publication"})
            data = mapping_document()
            data["datasets"].append(dataset)
            spec = load_mapping_spec(json.dumps(data), schema_graph)
            with pytest.raises(ValueError) as exc:
                build_entity_graph(schema_graph, spec, dict(tables, odd=[]), BASE, AT)
            assert str(exc.value) == message, case


def outcome(call, *args):
    """What *call* returns, or the type, text and finding of the
    ``ValueError`` it raises (``DanglingLinkError`` is one)."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "finding", None)


class TestColumnBuildMatchesRowOracle:
    """The column-at-a-time build against ``helpers.oracle_build_entity_graph``,
    which types and assembles one row at a time, on tables with every kind
    of fault: equal triples and findings, or the same error for the first
    fault in dataset, row and column order."""

    @pytest.fixture(scope="class")
    def faulty_schema_graph(self, du_ontology):
        """The fixture ETG plus the ``homepage`` (an ``iri``) and
        ``worksFor`` properties that ``random_faulty_spec`` maps, so the
        build's spec check passes and IRI-typed columns stay covered."""
        document = json.loads(fixture_text("du.etg.json"))
        document["data_properties"].append(
            {"name": "homepage", "domain": "Person", "datatype": "iri"}
        )
        document["object_properties"].append(
            {"name": "worksFor", "domain": "Person", "range": "Organization"}
        )
        schema_graph, _ = ground(
            du_ontology, load_etg(json.dumps(document)), {"en-book-1": "Publication"}
        )
        return schema_graph

    def test_build(self, faulty_schema_graph):
        rng = random.Random(20241020)
        seen = Counter()
        for case in range(400):
            spec = random_faulty_spec(rng)
            tables = random_faulty_tables(rng, spec, bad_ids=case % 8 == 0)
            expected = outcome(oracle_build_entity_graph, spec, tables, BASE, AT)
            built = outcome(build_entity_graph, faulty_schema_graph, spec, tables, BASE, AT)
            assert built == expected
            if isinstance(expected[0], type):
                seen[expected[0].__name__] += 1
            else:
                seen["built"] += 1
                seen.update(f.code for f in expected[1])
                seen["shares_property"] += any(e.shares_property for e in spec.datasets)
        assert min(seen[key] for key in (
            "built", "ValueError", "DanglingLinkError", "shares_property",
            "IG1", "IG2", "IG3", "LK2", "LK3",
        )) >= 5, seen

    def test_ingest(self):
        rng = random.Random(20241021)
        raised = 0
        for case in range(200):
            spec = random_faulty_spec(rng)
            tables = random_faulty_tables(rng, spec, bad_ids=case % 4 == 0)
            for entry in spec.datasets:
                expected = outcome(oracle_ingest_dataset, entry, tables[entry.id])
                assert outcome(ingest_dataset, entry, tables[entry.id]) == expected
                raised += isinstance(expected[0], type)
        assert raised >= 10

    def test_stub_and_skip_agree_whatever_the_dataset_order(self, schema_graph, tables):
        """Books under ``stub`` and orgs under ``skip`` both link to a
        missing ``nobody``: the skipped link finds the stub either way."""
        data = mapping_document()
        data["datasets"][0]["dangling_policy"] = "stub"
        data["datasets"][2]["dangling_policy"] = "skip"
        spec = load_mapping_spec(json.dumps(data), schema_graph)
        broken = dict(
            tables,
            books=[dict(tables["books"][0], author="nobody")],
            orgs=[dict(tables["orgs"][0], founder="nobody")],
        )
        nobody = Iri(BASE.value + "/Person/nobody")
        for order in (spec.datasets, spec.datasets[::-1]):
            graph, findings = build_entity_graph(
                schema_graph, replace(spec, datasets=order), broken, BASE, AT
            )
            assert [(f.code, f.path) for f in findings] == [("LK3", "books/b1/author")]
            assert sum(t.object == nobody for t in graph.triples) == 2
