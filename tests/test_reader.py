"""The strict JSON reader every loader shares, and the loaders' error contract.

Malformed input of any kind must end in ``FormatError`` (exit status 2 from
the command line), never in another exception.
"""

from __future__ import annotations

import copy
import json
import random

import pytest
from hypothesis import HealthCheck, Phase, given, seed, settings, strategies as st

from facetforge.catalogue import (
    build_record,
    load_catalogue_code,
    load_record,
    make_call_number,
    record_to_json,
)
from facetforge.cli import main
from facetforge.core import Fields, FormatError, parse_json
from facetforge.eg import load_mapping_spec, read_table
from facetforge.etg import load_etg, open_repository
from facetforge.exports import export_jsongraph, load_entity_graph_json
from facetforge.facet import SubjectHeading
from facetforge.fixtures import fixture_path, fixture_text
from facetforge.lexsem import load_lexsem
from facetforge.ontology import canonical_json, load_dataset_schema, load_ontology_json
from facetforge.schedule import load_schedule
from helpers import oracle_load_schedule, random_schedule_document

DEEP = 10**5
DEEP_ARRAY = "[" * DEEP + "]" * DEEP


def fx(name: str) -> str:
    return str(fixture_path(name))


class TestParseJson:
    @pytest.mark.parametrize("document", ["{not json", '{"a": 1,\n "b": }', "[1, 2", ""])
    def test_position_is_the_one_json_reports(self, document):
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(document)
        error = expected.value
        with pytest.raises(FormatError) as caught:
            parse_json(document, "thing")
        assert str(caught.value) == (
            f"thing: parse error at line {error.lineno}, column {error.colno}: {error.msg}"
        )

    def test_deep_document_parses(self):
        assert parse_json('{"a": ' + DEEP_ARRAY + "}", "thing").keys() == {"a"}

    def test_bytes_that_are_not_utf8_are_a_format_error(self):
        with pytest.raises(FormatError, match="^thing: "):
            parse_json(b'{"a": "\xff"}', "thing")


TABLE = Fields(
    ("name", "identifier"), ("label", "label"), ("note", "string", None),
    ("flag", "bool", False), ("count", "int", 0), ("tags", "strings", ()),
    ("items", "objects", ()), ("meta", "object", None),
)


FULL = {
    "name": "n", "label": "L", "note": "N", "flag": True, "count": 3, "tags": ["t"],
    "items": [{}], "meta": {},
}


class TestFields:
    def test_values_come_in_table_order_with_defaults(self):
        assert TABLE.read({"label": "L", "name": "n"}, "x") == [
            "n", "L", None, False, 0, (), (), None
        ]

    def test_null_stands_for_a_none_default(self):
        assert TABLE.read({"name": "n", "label": "L", "note": None}, "x")[2] is None

    @pytest.mark.parametrize(
        ("raw", "message"),
        [
            ([], "x: must be a JSON object"),
            ({"name": "n", "label": "L", "extra": 1, "b": 2}, "x: unknown keys ['b', 'extra']"),
            ({"label": "L"}, "x: missing key 'name'"),
            ({"name": "a b", "label": "L"}, "x: 'name' must be a string of [A-Za-z0-9._-]"),
            ({"name": "n", "label": "  "}, "x: 'label' must be a non-blank string"),
            ({"name": "n", "label": "L", "note": 5}, "x: 'note' must be a string"),
            ({"name": "n", "label": "L", "flag": 1}, "x: 'flag' must be a boolean"),
            ({"name": "n", "label": "L", "flag": "false"}, "x: 'flag' must be a boolean"),
            ({"name": "n", "label": "L", "flag": None}, "x: 'flag' must be a boolean"),
            ({"name": "n", "label": "L", "count": True}, "x: 'count' must be an integer"),
            ({"name": "n", "label": "L", "count": 2.9}, "x: 'count' must be an integer"),
            ({"name": "n", "label": "L", "tags": ["a", 1]}, "x: 'tags' must be a list of strings"),
            ({"name": "n", "label": "L", "tags": "ab"}, "x: 'tags' must be a list of strings"),
            ({"name": "n", "label": "L", "items": [{}, []]}, "x: 'items' must be a list of objects"),
            ({"name": "n", "label": "L", "meta": []}, "x: 'meta' must be an object"),
            ({"label": "L", "typo": 1}, "x: unknown keys ['typo']"),
            # As many keys as a full object: one optional key left out, one unknown.
            ({k: v for k, v in FULL.items() if k != "count"} | {"typo": 1},
             "x: unknown keys ['typo']"),
        ],
    )
    def test_malformed_objects_name_the_fault(self, raw, message):
        with pytest.raises(FormatError) as caught:
            TABLE.read(raw, "x")
        assert str(caught.value) == message
        # Read in bulk, a list with the object raises the same message.
        with pytest.raises(FormatError) as caught:
            TABLE.columns([FULL, raw, FULL, []], "x")
        assert str(caught.value) == message

    def test_columns_hold_what_read_gives(self):
        def by_column(raws):
            return [[TABLE.read(raw, "x")[index] for raw in raws] for index in range(8)]

        assert TABLE.columns([], "x") == [[]] * 8
        assert TABLE.columns([FULL, dict(FULL, name="m")], "x") == by_column(
            [FULL, dict(FULL, name="m")]
        )
        sparse = [FULL, {"name": "n", "label": "L"}, dict(FULL, note=None)]
        assert TABLE.columns(sparse, "x") == by_column(sparse)
        assert TABLE.columns([{"name": "n", "label": "L"}] * 2, "x") == [
            ["n", "n"], ["L", "L"], [None, None], [False, False], [0, 0], [(), ()], [(), ()],
            [None, None],
        ]
        single = Fields(("name", "string"))
        assert single.columns([{"name": "a"}, {"name": "b"}], "x") == [["a", "b"]]
        with pytest.raises(FormatError, match=r"^x: 'name' must be a string$"):
            single.columns([{"name": "a"}, {"name": 1}], "x")


    def test_columns_read_valid_objects_in_bulk(self, monkeypatch):
        """Optional keys absent, present or ``null`` (where the default is
        ``None``) do not make ``columns`` read the objects one at a time."""
        sparse = [FULL, {"name": "n", "label": "L"}, dict(FULL, note=None, meta=None)]
        expected = [[TABLE.read(raw, "x")[index] for raw in sparse] for index in range(8)]

        def refuse(self, raw, where):
            raise AssertionError("read one object at a time")

        monkeypatch.setattr(Fields, "read", refuse)
        assert TABLE.columns(sparse, "x") == expected
        assert TABLE.columns([FULL] * 3, "x") == [[value] * 3 for value in FULL.values()]


# ---------------------------------------------------------------------------
# Documents nested past json's recursion limit


def with_deep_array(document: dict, key: str) -> str:
    """*document* with a 10^5-deep array under *key*."""
    return json.dumps(dict(document, **{key: "DEEP"})).replace('"DEEP"', DEEP_ARRAY)


RECORD = {
    "record_id": "rec-1", "resource_type": "Book", "call_number": {"class": "L", "book": "SCH73"},
    "accession_number": 1, "headings": [], "fields": [],
}
ONTOLOGY = {"id": "r", "label": "R", "synset": None, "class": None, "children": []}
GRAPH = {
    "metadata": {"iri": "https://ex.org/du/eg/2024-01-01T00-00-00Z",
                 "timestamp": "2024-01-01T00:00:00Z", "sources": []},
    "entities": [], "links": [],
}

DEEP_CASES = {
    "schedule": (lambda: json.loads(fixture_text("med.schedule.json")), "categories", load_schedule),
    "catalogue code": (
        lambda: json.loads(fixture_text("ccc.catalogue.json")), "context_exemptions",
        load_catalogue_code,
    ),
    "record": (lambda: RECORD, "headings", load_record),
    "lexsem": (lambda: json.loads(fixture_text("toy.lexsem.json")), "catalogue", load_lexsem),
    "dataset schema": (
        lambda: json.loads(fixture_text("du.schema.json")), "classes", load_dataset_schema
    ),
    "ETG": (lambda: json.loads(fixture_text("du.etg.json")), "types", load_etg),
    "ontology": (lambda: ONTOLOGY, "children", load_ontology_json),
    "entity graph": (lambda: GRAPH, "links", load_entity_graph_json),
}


@pytest.mark.parametrize("case", DEEP_CASES)
def test_deep_array_under_a_key_is_a_format_error(case):
    document, key, loader = DEEP_CASES[case]
    with pytest.raises(FormatError, match=f"'{key}' must be a list of objects"):
        loader(with_deep_array(document(), key))


def test_deep_array_in_a_mapping_spec_is_a_format_error(schema_graph):
    spec = with_deep_array(json.loads(fixture_text("du.mapping.json")), "datasets")
    with pytest.raises(FormatError, match="'datasets' must be a list of objects"):
        load_mapping_spec(spec, schema_graph)


def test_deep_array_in_a_repository_catalogue_is_a_format_error(tmp_path):
    (tmp_path / "catalogue.json").write_text(with_deep_array({}, "entries"))
    with pytest.raises(FormatError, match="'entries' must be a list of objects"):
        open_repository(tmp_path)


def test_deep_array_in_a_json_table_is_a_format_error():
    with pytest.raises(FormatError, match="^JSON table must be a list of objects$"):
        read_table('[{"id": "a"}, ' + DEEP_ARRAY + "]", "json")


def test_cli_exits_2_on_a_deep_schedule(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(with_deep_array(json.loads(fixture_text("med.schedule.json")), "stoplist"))
    assert main(["schedule", "lint", str(path)]) == 2
    assert capsys.readouterr().err == "error: schedule: 'stoplist' must be a list of strings\n"


# ---------------------------------------------------------------------------
# The schedule loader checks a category in bulk and reads a faulty one concept
# by concept: it refuses each mutated document as the loader that read one
# concept at a time did, with the same text


def _load_outcome(load, data: bytes) -> tuple[str, str]:
    try:
        return "loaded", repr(load(data))
    except FormatError as exc:
        return "refused", str(exc)


@pytest.mark.parametrize("document", ["fixture", "generated"])
def test_mutated_schedules_fail_as_the_oracle_loader_fails(document):
    if document == "fixture":
        text = fixture_text("med.schedule.json")
    else:
        text = random_schedule_document(random.Random(11))

    @seed(20240101)
    @settings(
        max_examples=150, derandomize=True, deadline=None, database=None,
        phases=[Phase.explicit, Phase.generate], suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutations(text))
    def check(data: bytes) -> None:
        assert _load_outcome(load_schedule, data) == _load_outcome(oracle_load_schedule, data)

    check()


# ---------------------------------------------------------------------------
# No coercion of input values


def test_string_sought_is_rejected():
    document = json.loads(fixture_text("med.schedule.json"))
    document["categories"][0]["concepts"][0]["sought"] = "false"
    with pytest.raises(FormatError, match="^category P: 'sought' must be a boolean$"):
        load_schedule(json.dumps(document))


def test_fractional_ordinal_is_rejected():
    document = json.loads(fixture_text("med.schedule.json"))
    document["categories"][0]["concepts"][1]["ordinal"] = 2.9
    with pytest.raises(FormatError, match="^category P: 'ordinal' must be an integer$"):
        load_schedule(json.dumps(document))


def test_string_required_is_rejected():
    document = json.loads(fixture_text("ccc.catalogue.json"))
    document["resource_types"]["Book"][0]["required"] = "false"
    with pytest.raises(FormatError, match="^resource type Book: 'required' must be a boolean$"):
        load_catalogue_code(json.dumps(document))


def test_json_table_values_are_not_coerced():
    assert read_table('[{"id": "a", "pages": "12"}]', "json") == [{"id": "a", "pages": "12"}]
    with pytest.raises(FormatError, match="^JSON table row 2: every value must be a string$"):
        read_table('[{"id": "a"}, {"id": "b", "pages": 12}]', "json")


def test_csv_reader_errors_are_format_errors():
    with pytest.raises(FormatError, match="^CSV table: field larger than field limit"):
        read_table("id,title\na," + "x" * 200_000 + "\n", "csv")


RAGGED_CSV = {
    "id,name\na,Ann,EXTRA\n": "CSV table row 1: 3 fields, but the header has 2",
    "id,name\na,Ann\n\nb\n": "CSV table row 2: 1 fields, but the header has 2",
    "id,id\na,b\n": "CSV table: column 'id' repeated in the header row",
}


@pytest.mark.parametrize("text", RAGGED_CSV)
def test_ragged_or_ambiguous_csv_is_a_format_error(text, tmp_path, capsys):
    """A row longer or shorter than the header, or a name the header
    repeats, used to give a ``None`` key or value or drop a column."""
    with pytest.raises(FormatError) as caught:
        read_table(text, "csv")
    assert str(caught.value) == RAGGED_CSV[text]
    (tmp_path / "books.csv").write_text(text)
    args = _with(EG_BUILD, fx("books.csv"), str(tmp_path / "books.csv"))
    args = _with(args, "{ontology}", str(tmp_path / "ontology.json"))
    args = _with(args, "{out}", str(tmp_path / "eg.json"))
    assert main(_with(ONTOLOGY_BUILD, "{out}", str(tmp_path / "ontology.json"))) == 0
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {RAGGED_CSV[text]}\n"
    assert not (tmp_path / "eg.json").exists()


def test_shipped_csv_fixtures_read():
    for name in ("books", "people", "orgs", "places"):
        rows = read_table(fixture_text(f"{name}.csv"), "csv")
        header = fixture_text(f"{name}.csv").splitlines()[0].split(",")
        assert rows and all(list(row) == header for row in rows)
    assert read_table("id,name\n\na,Ann\n\n", "csv") == [{"id": "a", "name": "Ann"}]


# ---------------------------------------------------------------------------
# Fuzzing the loaders and the command line from the shipped fixtures


RETYPES = [5, None, "x", [], {}, True, -1.5, ["x"]]


def _paths(value, path=()):
    """The path of *value* and of every value inside it."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _paths(item, (*path, key))


def _replace(document, path, change):
    """A copy of *document* with ``change(parent, key)`` applied at *path*."""
    result = copy.deepcopy(document)
    if not path:
        return change(None, None)
    parent = result
    for key in path[:-1]:
        parent = parent[key]
    change(parent, path[-1])
    return result


def mutations(text: str) -> st.SearchStrategy[bytes]:
    """Drop one key, retype one value or truncate the bytes of *text*."""
    raw = text.encode()
    truncate = st.integers(0, len(raw) - 1).map(lambda n: raw[:n])
    if not text.lstrip().startswith("{"):
        return truncate
    document = json.loads(text)
    paths = list(_paths(document))
    keyed = [p for p in paths if p and isinstance(p[-1], str)]

    def drop(path):
        return json.dumps(_replace(document, path, lambda parent, key: parent.pop(key))).encode()

    def retype(choice):
        path, value = choice

        def put(parent, key):
            if parent is None:
                return value
            parent[key] = copy.deepcopy(value)

        return json.dumps(_replace(document, path, put)).encode()

    return st.one_of(
        st.sampled_from(keyed).map(drop),
        st.tuples(st.sampled_from(paths), st.sampled_from(RETYPES)).map(retype),
        truncate,
    )


EG_BUILD = [
    "eg", "build", "--ontology", "{ontology}", "--etg", fx("du.etg.json"),
    "--map", "en-book-1=Publication", "--spec", fx("du.mapping.json"),
    "--data", f"books={fx('books.csv')}", "--data", f"people={fx('people.csv')}",
    "--data", f"orgs={fx('orgs.csv')}", "--data", f"places={fx('places.csv')}",
    "--base", "https://ex.org/du", "--at", "2024-01-01T00:00:00Z", "--out", "{out}",
]
ONTOLOGY_BUILD = [
    "ontology", "build", "--lexsem", fx("toy.lexsem.json"), "--language", "en",
    "--schema", fx("du.schema.json"), "--out", "{out}",
]


def _with(args: list[str], original: str, replacement: str) -> list[str]:
    return [arg.replace(original, replacement) for arg in args]


@pytest.fixture(scope="module")
def documents(tmp_path_factory, ccc, du_ontology, figure_eg, schema_graph):
    """Per document: its text, its loader and the command that reads it."""
    root = tmp_path_factory.mktemp("fuzz")
    ontology_path = root / "ontology.json"
    ontology_path.write_bytes(canonical_json(du_ontology))
    eg_build = _with(EG_BUILD, "{ontology}", str(ontology_path))
    record = build_record(
        ccc, "Book", {"title": "T", "author": "A", "publisher": "P", "date": "1973"},
        [SubjectHeading("Medicine", "L")], make_call_number("L", "Schumacher", 1973, 1), 1,
    )
    table: dict[str, tuple[object, list[str]]] = {
        "med.schedule.json": (load_schedule, ["schedule", "lint", "{file}"]),
        "ccc.catalogue.json": (
            load_catalogue_code,
            ["record", "build", "--code", "{file}", "--schedule", fx("med.schedule.json"),
             "--formula", "[B],[P]:[E].[S]'[T?]", "--type", "Book",
             "--class-number", "L,9C:421.44'N7", "--field", "title=T", "--field", "author=A",
             "--field", "publisher=P", "--field", "date=1973", "--surname", "Schumacher",
             "--year", "1973", "--accession", "1", "--out", "{out}"],
        ),
        "toy.lexsem.json": (load_lexsem, _with(ONTOLOGY_BUILD, fx("toy.lexsem.json"), "{file}")),
        "du.schema.json": (
            load_dataset_schema, _with(ONTOLOGY_BUILD, fx("du.schema.json"), "{file}")
        ),
        "du.etg.json": (load_etg, ["etg", "lint", "{file}"]),
        "du.mapping.json": (
            lambda data: load_mapping_spec(data, schema_graph),
            _with(eg_build, fx("du.mapping.json"), "{file}"),
        ),
    }
    for name in ("books", "people", "orgs", "places"):
        table[f"{name}.csv"] = (
            lambda data: read_table(data.decode(), "csv"),
            _with(eg_build, fx(f"{name}.csv"), "{file}"),
        )
    texts = {name: fixture_text(name) for name in table}
    # Documents the command line writes from the fixtures, read back by later steps.
    texts["record.json"] = record_to_json(record)
    table["record.json"] = (load_record, ["record", "lint", "--code", fx("ccc.catalogue.json"),
                                          "{file}"])
    texts["ontology.json"] = canonical_json(du_ontology).decode()
    table["ontology.json"] = (
        load_ontology_json,
        ["ground", "--ontology", "{file}", "--etg", fx("du.etg.json"),
         "--map", "en-book-1=Publication", "--out", "{out}"],
    )
    texts["eg.json"] = export_jsongraph(figure_eg).decode()
    table["eg.json"] = (
        load_entity_graph_json, ["eg", "export", "--format", "nt", "{file}", "--out", "{out}"]
    )
    return root, {
        name: (texts[name], loader, _with(_with(args, "{out}", str(root / "out")), "{file}",
                                          str(root / f"mutated-{name}")))
        for name, (loader, args) in table.items()
    }


def _lexsem_synset(document: dict, **changes) -> None:
    document["languages"]["en"]["synsets"][1].update(changes)


# Per loader fault: the fixture it starts from, one change to it, and the
# message that the loader and the command that reads the fixture give.
LOADER_FAULTS = {
    "spec: duplicate dataset": (
        "du.mapping.json", lambda d: d["datasets"].append(d["datasets"][1]),
        "mapping spec: duplicate dataset 'people'",
    ),
    "spec: unknown entity type": (
        "du.mapping.json", lambda d: d["datasets"][1].update(type="Robot"),
        "dataset people: unknown entity type 'Robot'",
    ),
    "spec: unknown dangling policy": (
        "du.mapping.json", lambda d: d["datasets"][1].update(dangling_policy="ignore"),
        "dataset people: unknown dangling policy 'ignore'",
    ),
    "spec: link to an unknown dataset": (
        "du.mapping.json", lambda d: d["datasets"][0]["link_maps"][0].update(target="authors"),
        "dataset books: link 'author' targets unknown dataset 'authors'",
    ),
    "ETG: dangling parent": (
        "du.etg.json", lambda d: d["types"][1].update(parent="Being"),
        "ETG: type Person has dangling parent 'Being'",
    ),
    "ETG: bad datatype": (
        "du.etg.json", lambda d: d["data_properties"][1].update(datatype="float"),
        "ETG: data property title has bad datatype 'float'",
    ),
    "ETG: data property domain undefined": (
        "du.etg.json", lambda d: d["data_properties"][1].update(domain="Book"),
        "ETG: data property title domain 'Book' undefined",
    ),
    "ETG: object property named type": (
        "du.etg.json", lambda d: d["object_properties"][0].update(name="type"),
        "ETG: property name 'type' is reserved",
    ),
    "ETG: property declared twice": (
        "du.etg.json",
        lambda d: d["data_properties"].append(
            {"name": "title", "domain": "Publication", "datatype": "string"}
        ),
        "ETG: property 'title' declared twice on 'Publication'",
    ),
    "ETG: bad provenance timestamp": (
        "du.etg.json", lambda d: d.update(provenance={"source_id": "du", "timestamp": "2024"}),
        "ETG provenance: invalid timestamp '2024': expected YYYY-MM-DDTHH:MM:SSZ",
    ),
    "lexsem: no lemmas": (
        "toy.lexsem.json", lambda d: _lexsem_synset(d, lemmas=[]),
        "language en: synset en-person-1 has no lemmas",
    ),
    "lexsem: lemma not lowercase": (
        "toy.lexsem.json", lambda d: _lexsem_synset(d, lemmas=["person", "Human"]),
        "language en: lemma 'Human' of en-person-1 is not lowercase",
    ),
    "lexsem: catalogue language unknown": (
        "toy.lexsem.json", lambda d: d["catalogue"][0].update(language="fr"),
        "catalogue references unknown language 'fr'",
    ),
    "lexsem: catalogue root unknown": (
        "toy.lexsem.json", lambda d: d["catalogue"][0].update(root="en-person-9"),
        "catalogue references unknown root 'en-person-9'",
    ),
    "dataset schema: unknown attribute datatype": (
        "du.schema.json", lambda d: d["classes"][0]["attributes"][0].update(datatype="text"),
        "class Book: attribute 'title' has unknown datatype 'text'",
    ),
    "dataset schema: duplicate attribute": (
        "du.schema.json",
        lambda d: d["classes"][0]["attributes"].append(d["classes"][0]["attributes"][0]),
        "class Book: duplicate attribute 'title'",
    ),
    "catalogue code: duplicate field": (
        "ccc.catalogue.json",
        lambda d: d["resource_types"]["Book"].append(
            {"key": "title", "required": False, "sought": False, "order": 99}
        ),
        "resource type Book: duplicate field 'title'",
    ),
    "catalogue code: exemption of an unknown type": (
        "ccc.catalogue.json",
        lambda d: d["context_exemptions"].append(
            {"resource_type": "Film", "field": "title", "reason": "r"}
        ),
        "context exemption references unknown type 'Film'",
    ),
    "catalogue code: exemption of an unknown field": (
        "ccc.catalogue.json",
        lambda d: d["context_exemptions"].append(
            {"resource_type": "Book", "field": "isbn", "reason": "r"}
        ),
        "context exemption references unknown field 'isbn'",
    ),
    "schedule: empty notation": (
        "med.schedule.json", lambda d: d["base"].update(notation=""),
        "base: notation must be non-empty text",
    ),
    "schedule: reserved notation": (
        "med.schedule.json", lambda d: d["categories"][0]["concepts"][0].update(notation="9 C"),
        "category P/child: notation '9 C' contains reserved ' '",
    ),
    "schedule: duplicate succession entry": (
        "med.schedule.json", lambda d: d["succession"].append("ByTime"),
        "schedule: duplicate characteristic in succession",
    ),
    "schedule: duplicate category code": (
        "med.schedule.json", lambda d: d["categories"][1].update(code="P"),
        "category P: duplicate category code",
    ),
    # The right number of keys, one of them misspelled: the bulk read of
    # ``Fields.columns`` misses a key and reads the objects one at a time.
    "entity graph: misspelled key": (
        "eg.json", lambda d: d["entities"][0].update(tipe=d["entities"][0].pop("type")),
        "entity graph: entity: unknown keys ['tipe']",
    ),
    "entity graph: IRI not minted as <base>/eg/<timestamp>": (
        "eg.json", lambda d: d["metadata"].update(iri="https://ex.org/du/graph/2024"),
        "entity graph: metadata: EG IRI 'https://ex.org/du/graph/2024'"
        " was not minted as <base>/eg/<timestamp>",
    ),
}


@pytest.mark.parametrize("fault", LOADER_FAULTS)
def test_each_loader_fault_is_named(documents, fault, capsys):
    root, table = documents
    name, mutate, message = LOADER_FAULTS[fault]
    text, loader, args = table[name]
    document = json.loads(text)
    mutate(document)
    data = json.dumps(document).encode()
    with pytest.raises(FormatError) as caught:
        loader(data)
    assert str(caught.value) == message
    (root / f"mutated-{name}").write_bytes(data)
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


FUZZED = [
    "med.schedule.json", "ccc.catalogue.json", "toy.lexsem.json", "du.schema.json",
    "du.etg.json", "du.mapping.json", "books.csv", "people.csv", "orgs.csv", "places.csv",
    "record.json", "ontology.json", "eg.json",
]


@pytest.mark.parametrize("name", FUZZED)
def test_mutated_documents_fail_only_with_format_errors(documents, name):
    root, table = documents
    text, loader, args = table[name]
    path = root / f"mutated-{name}"

    # No shrinking: each step runs the command line, and shrinking a failure
    # took minutes; an unshrunk mutation of a small fixture reads well enough.
    @seed(20240101)
    @settings(
        max_examples=40, derandomize=True, deadline=None, database=None,
        phases=[Phase.explicit, Phase.generate], suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutations(text))
    def check(data: bytes) -> None:
        try:
            loader(data)
        except FormatError:
            pass
        path.write_bytes(data)
        assert main(args) in (0, 1, 2)

    check()
