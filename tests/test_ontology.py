from __future__ import annotations

import json

import pytest

from facetforge.core import FormatError, _load_deep_json
from facetforge.lexsem import hypernym_path
from facetforge.ontology import (
    LightweightOntology,
    OntologyNode,
    build_lightweight_ontology,
    canonical_json,
    load_dataset_schema,
    load_ontology_json,
    normalize_class_name,
    validate_backbone,
)
from helpers import scan_ontology_children


def schema_document(class_names):
    return json.dumps(
        {"classes": [{"name": name, "attributes": []} for name in class_names]}
    )


class TestLoadDatasetSchema:
    def test_fixture_loads(self, dataset_schema):
        assert [c.name for c in dataset_schema.classes] == ["Book", "Person", "Organization"]

    def test_reference_needs_target(self):
        document = json.dumps(
            {"classes": [{"name": "A", "attributes": [{"name": "x", "datatype": "reference"}]}]}
        )
        with pytest.raises(FormatError, match="target"):
            load_dataset_schema(document)

    def test_reference_target_must_exist(self):
        document = json.dumps(
            {
                "classes": [
                    {
                        "name": "A",
                        "attributes": [
                            {"name": "x", "datatype": "reference", "target": "Ghost"}
                        ],
                    }
                ]
            }
        )
        with pytest.raises(FormatError, match="names no class"):
            load_dataset_schema(document)

    def test_duplicate_class_rejected(self):
        with pytest.raises(FormatError, match="duplicate class"):
            load_dataset_schema(schema_document(["A", "A"]))


class TestNameNormalization:
    @pytest.mark.parametrize(
        ("name", "tokens"),
        [
            ("CreativeWork", ["creative", "work"]),
            ("creative_work", ["creative", "work"]),
            ("Book", ["book"]),
            ("HTTPServer2", ["httpserver2"]),
        ],
    )
    def test_tokenization(self, name, tokens):
        assert normalize_class_name(name) == tokens


class TestBuild:
    def test_three_class_tree(self, du_ontology):
        assert du_ontology.root == "en-entity-1"
        assert set(du_ontology.nodes) == {
            "en-entity-1",
            "en-publication-1",
            "en-book-1",
            "en-person-1",
            "en-organization-1",
        }
        assert du_ontology.nodes["en-book-1"].schema_class == "Book"
        assert du_ontology.nodes["en-book-1"].parent == "en-publication-1"
        assert du_ontology.nodes["en-entity-1"].label == "entity"

    def test_unresolved_class_under_root_with_warning(self, lexsem):
        schema = load_dataset_schema(schema_document(["Widget"]))
        ontology, findings = build_lightweight_ontology(lexsem, "en", schema)
        assert [f.code for f in findings] == ["LO1"]
        widget = ontology.nodes["Widget"]
        assert widget.parent == "en-entity-1"
        assert widget.schema_class == "Widget"

    def test_last_token_fallback(self, lexsem):
        schema = load_dataset_schema(schema_document(["AncientBook"]))
        ontology, findings = build_lightweight_ontology(lexsem, "en", schema)
        assert findings == []
        assert ontology.nodes["en-book-1"].schema_class == "AncientBook"

    def test_empty_schema_rejected(self, lexsem):
        schema = load_dataset_schema(schema_document([]))
        with pytest.raises(ValueError, match="no classes"):
            build_lightweight_ontology(lexsem, "en", schema)

    def test_node_count_upper_bound(self, lexsem, dataset_schema, du_ontology):
        path_total = 0
        for cls in dataset_schema.classes:
            tokens = normalize_class_name(cls.name)
            from facetforge.lexsem import resolve_sense

            synset = resolve_sense(lexsem, tokens[-1], "en")
            path_total += len(hypernym_path(lexsem, synset.id))
        assert len(du_ontology.nodes) <= path_total + 1

    def test_build_output_passes_backbone(self, du_ontology):
        assert validate_backbone(du_ontology) == []


class TestValidateBackbone:
    def node(self, nid, label, parent=None):
        return OntologyNode(id=nid, label=label, parent=parent)

    def test_two_roots_yield_lo2(self):
        ontology = LightweightOntology(
            "a", {"a": self.node("a", "A"), "b": self.node("b", "B")}
        )
        assert [f.code for f in validate_backbone(ontology)] == ["LO2"]

    def test_cycle_yields_lo3(self):
        ontology = LightweightOntology(
            "r",
            {
                "r": self.node("r", "R"),
                "a": OntologyNode(id="a", label="A", parent="b"),
                "b": OntologyNode(id="b", label="B", parent="a"),
            },
        )
        assert [f.code for f in validate_backbone(ontology)] == ["LO3"]

    def test_duplicate_sibling_label_yields_lo4(self):
        ontology = LightweightOntology(
            "r",
            {
                "r": self.node("r", "R"),
                "a": self.node("a", "Twin", "r"),
                "b": self.node("b", "Twin", "r"),
            },
        )
        assert [f.code for f in validate_backbone(ontology)] == ["LO4"]


class TestSerialization:
    def test_canonical_json_is_deterministic(self, lexsem, dataset_schema):
        first, _ = build_lightweight_ontology(lexsem, "en", dataset_schema)
        second, _ = build_lightweight_ontology(lexsem, "en", dataset_schema)
        assert canonical_json(first) == canonical_json(second)

    def test_children_sorted_by_label(self, du_ontology):
        payload = json.loads(canonical_json(du_ontology))
        labels = [child["label"] for child in payload["children"]]
        assert labels == sorted(labels)

    def test_round_trip(self, du_ontology):
        loaded = load_ontology_json(canonical_json(du_ontology))
        assert loaded.root == du_ontology.root
        assert loaded.nodes == du_ontology.nodes
        assert canonical_json(loaded) == canonical_json(du_ontology)

    def test_deep_chain_round_trips_to_equal_bytes(self):
        nodes = {}
        parent = None
        for depth in range(100_000):
            node_id = f"n{depth}"
            nodes[node_id] = OntologyNode(node_id, f"level {depth}", node_id, None, parent)
            parent = node_id
        ontology = LightweightOntology("n0", nodes)
        payload = canonical_json(ontology)
        assert payload.startswith(
            b'{"id":"n0","label":"level 0","synset":"n0","class":null,"children":[{"id":"n1"'
        )
        assert payload.endswith(b'"children":[]}' + b"]}" * 99_999 + b"\n")
        loaded = load_ontology_json(payload)
        assert loaded == ontology
        assert canonical_json(loaded) == payload

    def test_cycle_through_the_root_is_refused(self):
        ontology = LightweightOntology(
            "a",
            {
                "a": OntologyNode(id="a", label="A", parent="b"),
                "b": OntologyNode(id="b", label="B", parent="a"),
            },
        )
        with pytest.raises(ValueError, match="parent cycle under root 'a'"):
            canonical_json(ontology)

    def test_bytes_match_nested_json_dumps(self, du_ontology):
        tricky = {
            "r": OntologyNode("r", 'say "hi"', "s1", None),
            "a": OntologyNode("a", "Zoë\\", None, "Klass", "r"),
            "b": OntologyNode("b", "\u2603 snow", "s2", None, "r"),
            "c": OntologyNode("c", "tab\there", None, None, "a"),
        }
        for ontology in (du_ontology, LightweightOntology("r", tricky)):

            def nested(node_id):
                node = ontology.nodes[node_id]
                return {
                    "id": node.id,
                    "label": node.label,
                    "synset": node.synset_id,
                    "class": node.schema_class,
                    "children": [
                        nested(child.id) for child in scan_ontology_children(ontology, node_id)
                    ],
                }

            expected = json.dumps(
                nested(ontology.root), ensure_ascii=True, separators=(",", ":")
            )
            assert canonical_json(ontology) == expected.encode() + b"\n"


# Documents nested past json's recursion limit go to the stack-based reader.
DEEP = 5000

VALID_DOCUMENTS = [
    '{"id":"r","label":"R","children":[]}',
    ' {\n "a" : [ 1 , -2.5e3 , true , false , null , "\\u00e9\\n\\"" ] ,\t"b" : { } , "c" : [ ] } \r\n',
    '[[], {}, [{}], {"k": [[]]}, "", 0, {"dup": 1, "dup": 2}]',
    '"just a string"',
    '12',
]


@pytest.mark.parametrize("document", VALID_DOCUMENTS)
def test_deep_reader_returns_what_json_loads_returns(document):
    for payload in (document, document.encode(), document.encode("utf-16")):
        assert _load_deep_json(payload) == json.loads(payload)
    nested = "[" * DEEP + document + "]" * DEEP
    value = _load_deep_json(nested)
    for _ in range(DEEP):
        assert isinstance(value, list) and len(value) == 1
        value = value[0]
    assert value == json.loads(document)


# (innermost text, text after the closing brackets, json's message)
MALFORMED = [
    ("x", "", "Expecting value"),
    ("[,1]", "", "Expecting value"),
    ("{1}", "", "Expecting property name enclosed in double quotes"),
    ('{"a":1,2}', "", "Expecting property name enclosed in double quotes"),
    ('{"a" 1}', "", "Expecting ':' delimiter"),
    ("[1 2]", "", "Expecting ',' delimiter"),
    ('{"a":1]', "", "Expecting ',' delimiter"),
    ("1", " x", "Extra data"),
    ('"ab', "", "Unterminated string starting at"),
    ('"a\\q"', "", "Invalid \\escape"),
    ('{"a\\q":1}', "", "Invalid \\escape"),
    ('"a\tb"', "", "Invalid control character at"),
]


@pytest.mark.parametrize(("inner", "tail", "message"), MALFORMED)
def test_malformed_deep_documents_report_json_messages(inner, tail, message):
    def nest(depth):
        return '{"id":' * depth + inner + "}" * depth + tail

    columns = []
    for depth in (3, 4):
        with pytest.raises(json.JSONDecodeError) as shallow:
            json.loads(nest(depth))
        assert shallow.value.msg == message
        assert shallow.value.lineno == 1
        columns.append(shallow.value.colno)
    # json's error column grows by the same step with each level of nesting.
    column = columns[0] + (DEEP - 3) * (columns[1] - columns[0])
    with pytest.raises(FormatError) as deep:
        load_ontology_json(nest(DEEP))
    assert str(deep.value) == f"ontology: parse error at line 1, column {column}: {message}"


def test_unclosed_deep_document_expects_a_value():
    with pytest.raises(json.JSONDecodeError) as shallow:
        json.loads("[" * 3)
    assert (shallow.value.lineno, shallow.value.colno) == (1, 4)
    with pytest.raises(FormatError) as deep:
        load_ontology_json("[" * DEEP)
    assert str(deep.value) == (
        f"ontology: parse error at line 1, column {DEEP + 1}: Expecting value"
    )
