from __future__ import annotations

import json

import pytest

from facetforge.cli import main
from facetforge.fixtures import fixture_path, fixture_text
from helpers import MED_FORMULA


def fx(name: str) -> str:
    return str(fixture_path(name))


EG_BUILD_ARGS = [
    "--ontology", "ONT", "--etg", fx("du.etg.json"),
    "--map", "en-book-1=Publication",
    "--spec", fx("du.mapping.json"),
    "--data", f"books={fx('books.csv')}",
    "--data", f"people={fx('people.csv')}",
    "--data", f"orgs={fx('orgs.csv')}",
    "--data", f"places={fx('places.csv')}",
    "--base", "https://ex.org/du",
    "--at", "2024-01-01T00:00:00Z",
]


@pytest.fixture()
def ontology_file(tmp_path):
    out = tmp_path / "ontology.json"
    status = main(
        ["ontology", "build", "--lexsem", fx("toy.lexsem.json"), "--language", "en",
         "--schema", fx("du.schema.json"), "--out", str(out)]
    )
    assert status == 0
    return out


@pytest.fixture()
def eg_file(tmp_path, ontology_file):
    out = tmp_path / "eg.json"
    args = list(EG_BUILD_ARGS)
    args[1] = str(ontology_file)
    status = main(["eg", "build", *args, "--out", str(out)])
    assert status == 0
    return out


class TestClassify:
    def test_prints_class_number(self, capsys):
        status = main(
            ["classify", "--schedule", fx("med.schedule.json"), "--formula", MED_FORMULA,
             "--facet", "P=9C", "--facet", "E=421", "--facet", "S=44", "--facet", "T=N7"]
        )
        assert status == 0
        assert capsys.readouterr().out == "L,9C:421.44'N7\n"

    def test_missing_required_facet_is_usage_error(self, capsys):
        status = main(
            ["classify", "--schedule", fx("med.schedule.json"), "--formula", MED_FORMULA,
             "--facet", "E=4", "--facet", "S=44"]
        )
        assert status == 2
        assert "required facet P" in capsys.readouterr().err


class TestScheduleLint:
    def test_clean_fixture_exits_zero(self, capsys):
        assert main(["schedule", "lint", fx("med.schedule.json")]) == 0
        assert capsys.readouterr().err == ""

    def test_seeded_error_exits_one(self, tmp_path, capsys):
        data = json.loads(fixture_text("med.schedule.json"))
        data["categories"][1]["concepts"][2]["label"] = "Disease"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        assert main(["schedule", "lint", str(broken)]) == 1
        err = capsys.readouterr().err
        assert "IC4" in err and "error" in err

    def test_missing_file_is_io_error(self, capsys):
        assert main(["schedule", "lint", "/nonexistent/file.json"]) == 2


class TestChainIndex:
    def test_headings_tsv(self, capsys):
        status = main(
            ["chain-index", "--schedule", fx("med.schedule.json"), "--formula", MED_FORMULA,
             "L,9C:4.44"]
        )
        assert status == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "India, Disease, Child, Medicine\tL,9C:4.44"
        assert lines[-1] == "Medicine\tL"


class TestRecord:
    def build_args(self):
        return [
            "record", "build", "--code", fx("ccc.catalogue.json"),
            "--schedule", fx("med.schedule.json"), "--formula", MED_FORMULA,
            "--type", "Book", "--class-number", "L,9C:421.44'N7",
            "--field", "title=Bibliography on the tropical disease of children in India in the 1970s",
            "--field", "author=E.F. Schumacher",
            "--field", "publisher=Harper & Row",
            "--field", "date=1973",
            "--surname", "Schumacher", "--year", "1973", "--accession", "1",
        ]

    def test_build_and_lint(self, tmp_path, capsys):
        out = tmp_path / "record.json"
        assert main([*self.build_args(), "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["call_number"] == {"class": "L,9C:421.44'N7", "book": "SCH73"}
        assert len(record["headings"]) == 6
        assert [f["key"] for f in record["fields"]] == ["title", "author", "publisher", "date"]

        assert main(["record", "lint", "--code", fx("ccc.catalogue.json"), str(out)]) == 0

    def test_missing_required_field_is_usage_error(self, capsys):
        args = self.build_args()
        index = next(i for i, a in enumerate(args) if a.startswith("title="))
        del args[index - 1:index + 1]
        assert main(args) == 2
        assert "title" in capsys.readouterr().err


class TestOntologyAndGround:
    def test_ontology_build_payload(self, ontology_file):
        payload = json.loads(ontology_file.read_text())
        assert payload["id"] == "en-entity-1"
        assert {child["label"] for child in payload["children"]} >= {"organization", "person"}

    def test_ground_payload(self, ontology_file, capsys):
        status = main(
            ["ground", "--ontology", str(ontology_file), "--etg", fx("du.etg.json"),
             "--map", "en-book-1=Publication"]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["grounding"]["en-book-1"] == "Publication"
        assert payload["effective_properties"]["en-book-1"]["object"] == ["author", "publisher"]


class TestEtgAndRepo:
    def test_etg_lint_clean(self):
        assert main(["etg", "lint", fx("du.etg.json")]) == 0

    def test_repo_add_and_find(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FACETFORGE_REPO", str(tmp_path))
        assert main(["repo", "add", "--etg", fx("du.etg.json"), "--tags", "university"]) == 0
        capsys.readouterr()
        assert main(["repo", "find", "--tags", "university"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("du-core\t1\tuniversity\tclean")

    def test_repo_without_root_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("FACETFORGE_REPO", raising=False)
        assert main(["repo", "find"]) == 2

    def test_repo_add_refuses_dirty_etg(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.etg.json"
        dirty.write_text(json.dumps({
            "id": "dirty",
            "types": [{"id": "Lonely", "label": "Lonely", "differentiating": []}],
        }))
        status = main(["repo", "add", "--etg", str(dirty), "--repo", str(tmp_path / "repo")])
        assert status == 1
        assert "EP1" in capsys.readouterr().err


class TestEg:
    def test_build_then_query(self, eg_file, capsys):
        status = main(["eg", "query", str(eg_file), "?b <publisher> <harper-row> ."])
        assert status == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "?b"
        assert "<https://ex.org/du/Publication/b1>" in out

    def test_boolean_query(self, eg_file, capsys):
        status = main(["eg", "query", str(eg_file), "<b1> <author> <schumacher> ."])
        assert status == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_export_formats(self, eg_file, tmp_path):
        for fmt, suffix in (("nt", "nt"), ("json", "json"), ("fca", "csv")):
            out = tmp_path / f"export.{suffix}"
            assert main(["eg", "export", "--format", fmt, str(eg_file), "--out", str(out)]) == 0
            assert out.stat().st_size > 0

    def test_export_bogus_format_is_usage_error(self, eg_file):
        assert main(["eg", "export", "--format", "bogus", str(eg_file)]) == 2

    def test_snapshot_default_refuses_overwrite(self, eg_file, tmp_path, capsys):
        out_dir = tmp_path / "snap"
        assert main(["eg", "snapshot", str(eg_file), "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["files"]) == 2
        assert main(["eg", "snapshot", str(eg_file), "--out-dir", str(out_dir)]) == 2
        assert main(["eg", "snapshot", str(eg_file), "--out-dir", str(out_dir), "--force"]) == 0

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 2


class TestEgQueryErrors:
    def test_unterminated_iri_is_usage_error(self, eg_file, capsys):
        for text in (
            "?x <author ?y .",
            '?b <title> "x"^^<http://www.w3.org/2001/XMLSchema#string .',
        ):
            assert main(["eg", "query", str(eg_file), text]) == 2
            assert capsys.readouterr().err == "error: query: unterminated IRI\n"

    def test_unsupported_literal_datatype_is_usage_error(self, eg_file, capsys):
        text = '?b <title> "x"^^<http://ex.org/datatype> .'
        assert main(["eg", "query", str(eg_file), text]) == 2
        assert capsys.readouterr().err == (
            "error: query: unsupported literal datatype <http://ex.org/datatype>\n"
        )

    def test_unknown_name_is_usage_error(self, eg_file, capsys):
        status = main(["eg", "query", str(eg_file), "?b <author> <nobody> ."])
        assert status == 2
        assert capsys.readouterr().err == (
            "error: query: name 'nobody' matches no term in the graph\n"
        )

    def test_ambiguous_name_is_usage_error(self, eg_file, tmp_path, capsys):
        document = json.loads(eg_file.read_text())
        document["entities"].append(
            {"iri": "https://ex.org/du/Organization/schumacher", "type": "Organization",
             "values": []}
        )
        ambiguous = tmp_path / "ambiguous.json"
        ambiguous.write_text(json.dumps(document))
        status = main(["eg", "query", str(ambiguous), "?b <author> <schumacher> ."])
        assert status == 2
        assert capsys.readouterr().err == (
            "error: query: name 'schumacher' is ambiguous:"
            " ['https://ex.org/du/Organization/schumacher',"
            " 'https://ex.org/du/Person/schumacher']\n"
        )

    def test_first_bad_name_in_text_order_is_reported(self, eg_file, capsys):
        status = main(["eg", "query", str(eg_file), "?b <nobody> ?o . ?o <nothing> ?p ."])
        assert status == 2
        assert "'nobody'" in capsys.readouterr().err

    def test_full_iri_needs_no_resolution(self, eg_file, capsys):
        status = main(["eg", "query", str(eg_file),
                       "?b <https://ex.org/du/prop/author> <schumacher> ."])
        assert status == 0
        assert capsys.readouterr().out == "?b\n<https://ex.org/du/Publication/b1>\n"


class TestEgQueryLiterals:
    """A two-triple graph whose title needs every escape the exporter writes."""

    TITLE = 'tab\there, "quoted"\nline\r\\'

    @pytest.fixture()
    def graph_file(self, tmp_path):
        document = {
            "metadata": {"iri": "https://ex.org/du/eg/2024-01-01T00-00-00Z",
                         "timestamp": "2024-01-01T00:00:00Z", "sources": []},
            "entities": [{"iri": "https://ex.org/du/Publication/b1", "type": "Publication",
                          "values": [{"property": "title", "datatype": "string",
                                      "value": self.TITLE}]}],
            "links": [],
        }
        path = tmp_path / "eg.json"
        path.write_text(json.dumps(document))
        return str(path)

    def test_rendered_literal_reads_back(self, graph_file, capsys):
        assert main(["eg", "export", "--format", "nt", graph_file]) == 0
        title_line = [line for line in capsys.readouterr().out.splitlines() if "/title>" in line]
        literal = title_line[0].split("> ", 2)[2][:-2]
        assert literal == (
            '"tab\\there, \\"quoted\\"\\nline\\r\\\\"^^<http://www.w3.org/2001/XMLSchema#string>'
        )
        for text in (f"<b1> <title> {literal} .", f"<b1> <title> {literal.split('^^')[0]} ."):
            assert main(["eg", "query", graph_file, text]) == 0
            assert capsys.readouterr().out == "true\n"
        assert main(["eg", "query", graph_file, '<b1> <title> "tab\\there" .']) == 0
        assert capsys.readouterr().out == "false\n"

    def test_unknown_escape_is_usage_error(self, graph_file, capsys):
        assert main(["eg", "query", graph_file, '?b <title> "a\\x" .']) == 2
        assert capsys.readouterr().err == "error: query: bad escape \\x in literal\n"

    def test_escaped_closing_quote_leaves_literal_unterminated(self, graph_file, capsys):
        assert main(["eg", "query", graph_file, '?b <title> "a\\" .']) == 2
        assert capsys.readouterr().err == "error: query: unterminated literal\n"


class TestMalformedDocuments:
    def write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_etg_type_without_label(self, tmp_path, capsys):
        data = json.loads(fixture_text("du.etg.json"))
        del data["types"][0]["label"]
        assert main(["etg", "lint", self.write(tmp_path, "etg.json", data)]) == 2
        assert capsys.readouterr().err == "error: ETG type: missing key 'label'\n"

    def test_etg_types_not_a_list(self, tmp_path, capsys):
        data = json.loads(fixture_text("du.etg.json"))
        data["types"] = 5
        assert main(["etg", "lint", self.write(tmp_path, "etg.json", data)]) == 2
        assert capsys.readouterr().err == "error: ETG: 'types' must be a list of objects\n"

    def test_mapping_dataset_without_id(self, tmp_path, ontology_file, capsys):
        data = json.loads(fixture_text("du.mapping.json"))
        del data["datasets"][0]["id"]
        args = list(EG_BUILD_ARGS)
        args[1] = str(ontology_file)
        args[args.index("--spec") + 1] = self.write(tmp_path, "spec.json", data)
        assert main(["eg", "build", *args]) == 2
        assert capsys.readouterr().err == "error: mapping spec dataset: missing key 'id'\n"

    def build_with_spec(self, tmp_path, ontology_file, spec) -> int:
        args = list(EG_BUILD_ARGS)
        args[1] = str(ontology_file)
        args[args.index("--spec") + 1] = self.write(tmp_path, "spec.json", spec)
        return main(["eg", "build", *args])

    def test_mapping_repeats_a_column_property_pair(self, tmp_path, ontology_file, capsys):
        data = json.loads(fixture_text("du.mapping.json"))
        people = next(d for d in data["datasets"] if d["id"] == "people")
        people["data_maps"].append({"column": "name", "property": "name", "datatype": "string"})
        assert self.build_with_spec(tmp_path, ontology_file, data) == 2
        assert capsys.readouterr().err == (
            "error: dataset people: data map from column 'name' onto property 'name'"
            " given twice\n"
        )

    def test_mapping_repeats_a_link_map(self, tmp_path, ontology_file, capsys):
        data = json.loads(fixture_text("du.mapping.json"))
        books = next(d for d in data["datasets"] if d["id"] == "books")
        books["link_maps"].append(dict(books["link_maps"][0]))
        assert self.build_with_spec(tmp_path, ontology_file, data) == 2
        assert capsys.readouterr().err == (
            "error: dataset books: link map from column 'author' onto property 'author'"
            " given twice\n"
        )
