from __future__ import annotations

import json
import random

import pytest

from facetforge.core import FormatError, Label
from facetforge.etg import (
    DataProperty,
    EntityType,
    EntityTypeGraph,
    EtgLintConfig,
    LintGateError,
    etg_to_json,
    ground,
    lint_etg,
    load_etg,
    open_repository,
    repo_add,
    repo_find,
)
from facetforge.fixtures import fixture_text
from facetforge.ontology import LightweightOntology, OntologyNode
from helpers import random_groundable_etg, random_ontology, scan_effective, scan_grounding


def etg_document(**overrides):
    data = json.loads(fixture_text("du.etg.json"))
    data.update(overrides)
    return data


def make_etg(types, data_properties=(), object_properties=(), etg_id="SEED"):
    return EntityTypeGraph(
        etg_id, tuple(types), tuple(data_properties), tuple(object_properties)
    )


def entity_type(tid, label, parent=None, differentiating=("d",)):
    return EntityType(tid, Label(label), parent, tuple(differentiating))


class TestLoad:
    def test_fixture_loads(self, du_etg):
        assert du_etg.id == "du-core"
        assert {t.id for t in du_etg.types} == {
            "Entity", "Person", "Organization", "Publication", "Place",
        }
        assert du_etg.effective_data_properties("Publication").keys() == {
            "name", "title", "datePublished", "numberOfPages",
        }
        assert du_etg.effective_object_properties("Organization").keys() == {
            "headquarteredIn", "foundedBy",
        }

    def test_dangling_range_rejected(self):
        data = etg_document()
        data["object_properties"][2]["range"] = "Placee"
        with pytest.raises(FormatError, match="range 'Placee' undefined"):
            load_etg(json.dumps(data))

    def test_types_only_etg_is_valid(self):
        data = {
            "id": "bare",
            "types": [{"id": "Entity", "label": "Entity", "differentiating": []}],
        }
        loaded = load_etg(json.dumps(data))
        assert loaded.data_properties == ()

    def test_duplicate_type_id_rejected(self):
        data = etg_document()
        data["types"].append({"id": "Person", "label": "Person 2"})
        with pytest.raises(FormatError, match="duplicate type id"):
            load_etg(json.dumps(data))

    def test_two_roots_rejected(self):
        data = etg_document()
        data["types"].append({"id": "Loose", "label": "Loose", "differentiating": ["x"]})
        with pytest.raises(FormatError, match="exactly one root"):
            load_etg(json.dumps(data))

    def test_reserved_property_name_rejected(self):
        data = etg_document()
        data["data_properties"].append(
            {"name": "type", "domain": "Entity", "datatype": "string"}
        )
        with pytest.raises(FormatError, match="reserved"):
            load_etg(json.dumps(data))

    def test_json_round_trip(self, du_etg):
        assert load_etg(etg_to_json(du_etg)) == du_etg


class TestLint:
    def test_fixture_is_clean(self, du_etg):
        assert lint_etg(du_etg) == []

    def test_ep1_no_identifying_property(self):
        etg = make_etg([entity_type("Organization", "Organization", differentiating=())])
        findings = lint_etg(etg)
        assert [f.code for f in findings] == ["EP1"]

    def test_ep2_dangling_domain(self):
        etg = make_etg(
            [entity_type("Root", "Root", differentiating=())],
            data_properties=[
                DataProperty("name", "Root", "string", identifying=True),
                DataProperty("size", "Ghost", "integer"),
            ],
        )
        findings = lint_etg(etg)
        assert [f.code for f in findings] == ["EP2"]

    def test_ep3_property_redeclared_on_chain(self):
        etg = make_etg(
            [
                entity_type("Root", "Root", differentiating=()),
                entity_type("Child", "Child", parent="Root", differentiating=("x",)),
            ],
            data_properties=[
                DataProperty("name", "Root", "string", identifying=True),
                DataProperty("name", "Child", "string"),
            ],
        )
        findings = lint_etg(etg)
        assert [f.code for f in findings] == ["EP3"]

    def test_ic4_twin_sibling_labels(self):
        etg = make_etg(
            [
                entity_type("Root", "Root", differentiating=()),
                entity_type("A", "Agent", parent="Root", differentiating=("x",)),
                entity_type("B", "Agent", parent="Root", differentiating=("y",)),
            ],
            data_properties=[DataProperty("name", "Root", "string", identifying=True)],
        )
        findings = lint_etg(etg)
        assert [f.code for f in findings] == ["IC4"]

    def test_ch1_type_adds_nothing(self):
        etg = make_etg(
            [
                entity_type("Root", "Root", differentiating=("base",)),
                entity_type("Child", "Child", parent="Root", differentiating=("base",)),
            ],
            data_properties=[DataProperty("name", "Root", "string", identifying=True)],
        )
        findings = lint_etg(etg)
        assert [f.code for f in findings] == ["CH1"]

    def test_np2_label_path_collision_across_parents(self):
        etg = make_etg(
            [
                entity_type("Root", "Root", differentiating=()),
                entity_type("A", "Branch", parent="Root", differentiating=("x",)),
                entity_type("B", "Branch", parent="Root", differentiating=("y",)),
                entity_type("A1", "Leaf", parent="A", differentiating=("p",)),
                entity_type("B1", "Leaf", parent="B", differentiating=("q",)),
            ],
            data_properties=[DataProperty("name", "Root", "string", identifying=True)],
        )
        codes = [f.code for f in lint_etg(etg)]
        assert codes == ["IC4", "NP2"]  # sibling twins plus the deeper path clash

    def test_np1_duplicate_type_ids(self):
        etg = make_etg(
            [
                entity_type("Root", "Root", differentiating=()),
                entity_type("Root", "Other root", differentiating=()),
            ],
            data_properties=[DataProperty("name", "Root", "string", identifying=True)],
        )
        findings = lint_etg(etg)
        assert "NP1" in [f.code for f in findings]

    def test_vp1_stoplisted_label(self):
        etg = make_etg(
            [entity_type("Root", "Worthless root", differentiating=())],
            data_properties=[DataProperty("name", "Root", "string", identifying=True)],
        )
        findings = lint_etg(etg, EtgLintConfig(stoplist=frozenset({"worthless"})))
        assert [f.code for f in findings] == ["VP1"]


class TestRepository:
    def test_add_then_find(self, tmp_path, du_etg):
        repo = open_repository(tmp_path)
        repo = repo_add(repo, du_etg, ["university", "demo"])
        for tag in ("university", "demo"):
            hits = repo_find(repo, [tag])
            assert [(e.etg_id, e.version, e.lint_status) for e in hits] == [
                ("du-core", "1", "clean")
            ]
        assert (tmp_path / "du-core" / "1.etg.json").exists()

        reopened = open_repository(tmp_path)
        assert repo_find(reopened, ["university"]) == repo_find(repo, ["university"])
        assert load_etg((tmp_path / "du-core" / "1.etg.json").read_text()) == du_etg

    def test_empty_query_matches_all(self, tmp_path, du_etg):
        repo = repo_add(open_repository(tmp_path), du_etg, ["university"])
        assert len(repo_find(repo, [])) == 1

    def test_unmatched_tag_finds_nothing(self, tmp_path, du_etg):
        repo = repo_add(open_repository(tmp_path), du_etg, ["university"])
        assert repo_find(repo, ["nonexistent"]) == []

    def test_lint_errors_refuse_admission(self, tmp_path):
        dirty = make_etg([entity_type("Organization", "Organization", differentiating=())])
        repo = open_repository(tmp_path)
        with pytest.raises(LintGateError) as exc:
            repo_add(repo, dirty, ["x"])
        assert [f.code for f in exc.value.findings] == ["EP1"]
        assert not (tmp_path / "SEED").exists()

    def test_duplicate_id_version_rejected(self, tmp_path, du_etg):
        repo = repo_add(open_repository(tmp_path), du_etg, ["a"])
        with pytest.raises(ValueError, match="already holds"):
            repo_add(repo, du_etg, ["b"])
        repo = repo_add(repo, du_etg, ["b"], version="2")
        assert len(repo_find(repo)) == 2


class TestGround:
    def test_total_grounding_with_explicit_mapping(self, schema_graph):
        assert schema_graph.grounding == {
            "en-entity-1": "Entity",
            "en-person-1": "Person",
            "en-organization-1": "Organization",
            "en-publication-1": "Publication",
            "en-book-1": "Publication",
        }
        assert len(schema_graph.grounding) == len(schema_graph.ontology.nodes)

    def test_effective_properties_inherit(self, schema_graph):
        book = schema_graph.effective_properties["en-book-1"]
        assert book.data == {"name", "title", "datePublished", "numberOfPages"}
        assert book.objects == {"author", "publisher"}
        entity = schema_graph.effective_properties["en-entity-1"]
        assert entity.data == {"name"}

    def test_effective_properties_monotone_under_subtype_grounding(self, schema_graph):
        etg = schema_graph.etg
        for node in schema_graph.ontology.nodes.values():
            if node.parent is None:
                continue
            node_type = schema_graph.grounding[node.id]
            parent_type = schema_graph.grounding[node.parent]
            if etg.descends_from(node_type, parent_type):
                child_props = schema_graph.effective_properties[node.id]
                parent_props = schema_graph.effective_properties[node.parent]
                assert child_props.data >= parent_props.data
                assert child_props.objects >= parent_props.objects

    def test_unmatched_leaf_inherits_with_gr1(self, du_ontology, du_etg):
        nodes = dict(du_ontology.nodes)
        nodes["widget"] = OntologyNode(id="widget", label="Widget", parent="en-book-1")
        extended = LightweightOntology(du_ontology.root, nodes)
        graph, findings = ground(extended, du_etg, {"en-book-1": "Publication"})
        assert [f.code for f in findings] == ["GR1"]
        assert graph.grounding["widget"] == "Publication"
        assert len(graph.grounding) == len(nodes)

    def test_root_without_match_rejected(self, du_etg):
        lone = LightweightOntology(
            "r", {"r": OntologyNode(id="r", label="Unmatched root")}
        )
        with pytest.raises(ValueError, match="matches no entity type"):
            ground(lone, du_etg)

    def test_mapping_references_validated(self, du_ontology, du_etg):
        with pytest.raises(ValueError, match="unknown entity type"):
            ground(du_ontology, du_etg, {"en-book-1": "Ghost"})
        with pytest.raises(ValueError, match="unknown ontology node"):
            ground(du_ontology, du_etg, {"ghost": "Publication"})

    def test_dirty_etg_rejected(self, du_ontology):
        dirty = make_etg([entity_type("Entity", "entity", differentiating=())])
        with pytest.raises(LintGateError, match="not lint-clean"):
            ground(du_ontology, dirty, {})


class TestGroundSharedTypes:
    """``ground`` computes each grounded type's effective properties once and
    shares them among the nodes grounded in it."""

    def test_matches_scan_on_seeded_etgs(self):
        rng = random.Random(5150)
        shared = inherited = by_label = 0
        for _ in range(300):
            etg = random_groundable_etg(rng)
            ontology = random_ontology(rng)
            pool = rng.sample([t.id for t in etg.types], min(len(etg.types), rng.randint(1, 3)))
            mapping = {
                node_id: rng.choice(pool)
                for node_id in ontology.nodes
                if node_id == ontology.root or rng.random() < 0.3
            }
            schema_graph, findings = ground(ontology, etg, mapping)
            grounding, paths = scan_grounding(ontology, etg, mapping)
            assert schema_graph.grounding == grounding
            assert sorted(f.path for f in findings) == paths
            assert {f.code for f in findings} <= {"GR1"}
            for node_id, type_id in grounding.items():
                effective = schema_graph.effective_properties[node_id]
                assert effective.data == set(scan_effective(etg, type_id, etg.data_properties))
                assert effective.objects == set(
                    scan_effective(etg, type_id, etg.object_properties)
                )
            shared += len(grounding) - len(set(grounding.values()))
            inherited += len(paths)
            by_label += sum(
                node_id not in mapping and f"nodes/{node_id}" not in paths
                for node_id in ontology.nodes
            )
        assert shared >= 6000 and inherited >= 1200 and by_label >= 3000, (
            shared, inherited, by_label,
        )

    def test_many_nodes_on_a_deep_chain(self):
        depth = 1000
        types = [entity_type("T0", "thing")] + [
            entity_type(f"T{i}", f"kind {i}", f"T{i - 1}", (f"d{i}",)) for i in range(1, depth)
        ]
        data = [DataProperty("id", "T0", "string", identifying=True)] + [
            DataProperty(f"p{i}", f"T{i}", "string") for i in range(1, depth, 10)
        ]
        etg = make_etg(types, data)
        nodes = {"root": OntologyNode(id="root", label="root")}
        nodes.update(
            (f"n{i}", OntologyNode(id=f"n{i}", label=f"node {i}", parent="root"))
            for i in range(3999)
        )
        ontology = LightweightOntology("root", nodes)
        schema_graph, findings = ground(ontology, etg, dict.fromkeys(nodes, f"T{depth - 1}"))
        assert findings == []
        expected = set(scan_effective(etg, f"T{depth - 1}", etg.data_properties))
        assert len(expected) == 101
        assert len(schema_graph.effective_properties) == 4000
        assert len({id(e) for e in schema_graph.effective_properties.values()}) == 1
        assert all(e.data == expected and e.objects == set()
                   for e in schema_graph.effective_properties.values())
