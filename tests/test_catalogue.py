from __future__ import annotations

import json
import random

import pytest

from facetforge.catalogue import (
    CallNumber,
    build_record,
    lint_records,
    load_catalogue_code,
    load_record,
    make_call_number,
    record_to_json,
)
from facetforge.core import FormatError
from facetforge.facet import SubjectHeading, chain_index, parse_class_number
from facetforge.fixtures import fixture_text

FULL_IMPRINT = {
    "title": "Bibliography on the tropical disease of children in India in the 1970s",
    "author": "E.F. Schumacher",
    "publisher": "Harper & Row",
    "place": "New York",
    "date": "1973",
    "pages": "290",
}


def ccc_document(**overrides):
    data = json.loads(fixture_text("ccc.catalogue.json"))
    data.update(overrides)
    return data


@pytest.fixture()
def med_headings(med, med_formula):
    number = parse_class_number(med, med_formula, "L,9C:4.44")
    return chain_index(med, number)


class TestLoadCatalogueCode:
    def test_fixture_loads(self, ccc):
        specs = ccc.specs("Book")
        assert [s.key for s in specs] == ["title", "author", "publisher", "place", "date", "pages"]
        assert [s.order for s in specs] == [1, 2, 3, 4, 5, 6]

    def test_variation_on_unknown_field_rejected(self):
        data = ccc_document(local_variations=[{"field": "isbn", "template": "{value}"}])
        with pytest.raises(FormatError, match="unknown field 'isbn'"):
            load_catalogue_code(json.dumps(data))

    def test_empty_resource_types_is_valid(self):
        data = ccc_document(resource_types={})
        code = load_catalogue_code(json.dumps(data))
        assert code.resource_types == {}

    def test_duplicate_order_rejected(self):
        data = ccc_document()
        data["resource_types"]["Book"][1]["order"] = 1
        with pytest.raises(FormatError, match="duplicate order"):
            load_catalogue_code(json.dumps(data))


class TestMakeCallNumber:
    CLASS = "L,9C:421.44'N7"

    def test_surname_and_year_rule(self):
        number = make_call_number(self.CLASS, "Schumacher", 1973, 1)
        assert number == CallNumber(self.CLASS, "SCH73")

    def test_collision_appends_accession(self):
        taken = {CallNumber(self.CLASS, "SCH73")}
        number = make_call_number(self.CLASS, "Schumacher", 1973, 42, taken)
        assert number.book_part == "SCH7342"

    def test_surname_without_letters_rejected(self):
        with pytest.raises(ValueError, match="no letters"):
            make_call_number(self.CLASS, "", 1973, 1)

    def test_short_surname_and_punctuation(self):
        number = make_call_number(self.CLASS, "O'Ng", 2001, 7)
        assert number.book_part == "ONG01"

    def test_duplicate_accession_rejected(self):
        taken = {CallNumber(self.CLASS, "SCH73"), CallNumber(self.CLASS, "SCH7342")}
        with pytest.raises(ValueError, match="duplicate accession"):
            make_call_number(self.CLASS, "Schumacher", 1973, 42, taken)

    def test_register_never_duplicates(self):
        rng = random.Random(99)
        surnames = ["Schumacher", "Ng", "O'Brien", "Li", "Brontë", "Kafka", "Sand"]
        register: set[CallNumber] = set()
        for accession in range(1, 2001):
            number = make_call_number(
                "L", rng.choice(surnames), rng.randint(1900, 2024), accession, register
            )
            assert number not in register
            register.add(number)

    def test_existing_may_be_any_iterable(self):
        issued = [CallNumber(self.CLASS, "SCH73"), CallNumber("L", "NG01")]
        for existing in (issued, set(issued), (n for n in issued)):
            number = make_call_number(self.CLASS, "Schumacher", 1973, 9, existing)
            assert number == CallNumber(self.CLASS, "SCH739")


class TestBuildRecord:
    def test_full_imprint_record(self, ccc, med_headings):
        call = make_call_number("L,9C:4.44", "Schumacher", 1973, 1)
        record = build_record(ccc, "Book", FULL_IMPRINT, med_headings, call, 1)
        assert [k for k, _ in record.fields] == [
            "title", "author", "publisher", "place", "date", "pages",
        ]
        assert len(record.headings) == 4
        assert record.call_number.book_part == "SCH73"
        assert record.record_id == "rec-1"

    def test_missing_required_fields_all_named(self, ccc, med_headings):
        call = make_call_number("L", "Schumacher", 1973, 1)
        with pytest.raises(ValueError, match="title.*date") as exc:
            build_record(ccc, "Book", {"author": "x", "publisher": "y"}, med_headings, call, 1)
        assert "title" in str(exc.value)

    def test_unknown_field_rejected(self, ccc, med_headings):
        call = make_call_number("L", "Schumacher", 1973, 1)
        imprint = dict(FULL_IMPRINT, colour="red")
        with pytest.raises(ValueError, match="colour"):
            build_record(ccc, "Book", imprint, med_headings, call, 1)

    def test_local_variation_applied(self, med_headings):
        data = ccc_document(
            local_variations=[{"field": "date", "template": "published {value}"}]
        )
        code = load_catalogue_code(json.dumps(data))
        call = make_call_number("L", "Schumacher", 1973, 1)
        record = build_record(code, "Book", FULL_IMPRINT, med_headings, call, 1)
        assert dict(record.fields)["date"] == "published 1973"

    def test_json_round_trip(self, ccc, med_headings):
        call = make_call_number("L,9C:4.44", "Schumacher", 1973, 3)
        record = build_record(ccc, "Book", FULL_IMPRINT, med_headings, call, 3)
        rendered = record_to_json(record)
        assert list(json.loads(rendered)) == [
            "record_id", "resource_type", "call_number", "accession_number",
            "headings", "fields",
        ]
        assert load_record(rendered) == record


    @pytest.mark.parametrize(
        ("accession", "imprint", "message"),
        [
            (True, FULL_IMPRINT, "accession number must be an integer, got True"),
            (2.0, FULL_IMPRINT, "accession number must be an integer, got 2.0"),
            ("2", FULL_IMPRINT, "accession number must be an integer, got '2'"),
            (1, dict(FULL_IMPRINT, pages=300), "field 'pages': value must be a string, got 300"),
            (1, dict(FULL_IMPRINT, place=None), "field 'place': value must be a string, got None"),
        ],
    )
    def test_what_a_record_file_cannot_hold_is_refused(
        self, ccc, med_headings, accession, imprint, message
    ):
        call = CallNumber("L,9C:4.44", "SCH73")
        with pytest.raises(ValueError) as caught:
            build_record(ccc, "Book", imprint, med_headings, call, accession)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        ("year", "accession", "message"),
        [
            (1973.0, 1, "year must be an integer, got 1973.0"),
            (True, 1, "year must be an integer, got True"),
            ("1973", 1, "year must be an integer, got '1973'"),
            (1973, False, "accession number must be an integer, got False"),
            (1973, 1.5, "accession number must be an integer, got 1.5"),
        ],
    )
    def test_call_numbers_need_integer_years_and_accessions(self, year, accession, message):
        with pytest.raises(ValueError) as caught:
            make_call_number("L", "Schumacher", year, accession)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        ("headings", "call", "message"),
        [
            ([("Medicine", "L")], CallNumber("L", "SCH73"),
             "heading must be a SubjectHeading, got ('Medicine', 'L')"),
            (["Medicine"], CallNumber("L", "SCH73"),
             "heading must be a SubjectHeading, got 'Medicine'"),
            ([SubjectHeading("Medicine", "L")], ("L", "SCH73"),
             "call number must be a CallNumber, got ('L', 'SCH73')"),
            ([], SubjectHeading("L", "SCH73"),
             "call number must be a CallNumber,"
             " got SubjectHeading(heading='L', reference='SCH73')"),
        ],
    )
    def test_headings_and_call_numbers_must_be_their_types(self, ccc, headings, call, message):
        with pytest.raises(ValueError) as caught:
            build_record(ccc, "Book", FULL_IMPRINT, headings, call, 1)
        assert str(caught.value) == message

    def test_every_record_build_record_accepts_round_trips(self, med_headings):
        """Over accession numbers, years, class parts, headings and field
        values of many types and texts, a record either is refused or comes
        back equal from its JSON form."""
        code = load_catalogue_code(json.dumps(ccc_document(
            local_variations=[{"field": "place", "template": "at {value}"}]
        )))
        rng = random.Random(5)

        def pick(good: list, bad: list):
            return rng.choice(bad) if rng.random() < 0.1 else rng.choice(good)

        outcomes = []
        for _ in range(400):
            imprint = {
                key: pick(
                    ["", "290", "{value}", "Brontë", "line\nbreak \u2028", "\ud800", value],
                    [290, None, 2.5, True],
                )
                for key, value in FULL_IMPRINT.items()
                if key in {"title", "author", "publisher", "date"} or rng.random() < 0.5
            }
            accession = pick([1, 7, 10**20], [True, False, 2.0, "4", None, 0, -3])
            year = pick([1973, 2024], [1973.0, True, "1973"])
            headings = med_headings[: rng.randint(0, 4)]
            class_number = pick(["L,9C:4.44", "", "Brontë"], [7, None])
            parts = pick([(), ("Brontë", ""), ("line\nbreak", "L,9C")], [(5, "L"), ("H", None)])
            plain = pick([None], ["heading", "call number"])
            try:
                call = make_call_number(class_number, "Schumacher", year, accession)
                if parts:
                    headings = [*headings, SubjectHeading(*parts)]
                if plain == "heading":
                    headings = [*map(tuple, headings)] or [("H", "L")]
                elif plain == "call number":
                    call = tuple(call)
                record = build_record(code, "Book", imprint, headings, call, accession)
            except ValueError:
                outcomes.append("refused")
                continue
            assert load_record(record_to_json(record)) == record
            assert load_record(record_to_json(record).encode()) == record
            outcomes.append("kept")
        assert min(outcomes.count("refused"), outcomes.count("kept")) >= 50, outcomes


class TestLintRecords:
    def build(self, ccc, med_headings, imprint, accession):
        call = make_call_number("L,9C:4.44", "Schumacher", 1973, accession)
        return build_record(ccc, "Book", imprint, med_headings, call, accession)

    def test_identical_key_sets_pass(self, ccc, med_headings):
        records = [
            self.build(ccc, med_headings, FULL_IMPRINT, 1),
            self.build(ccc, med_headings, dict(FULL_IMPRINT, title="Другое"), 2),
        ]
        assert lint_records(ccc, records) == []

    def test_cc1_missing_field_flagged(self, ccc, med_headings):
        smaller = {k: v for k, v in FULL_IMPRINT.items() if k != "pages"}
        records = [
            self.build(ccc, med_headings, FULL_IMPRINT, 1),
            self.build(ccc, med_headings, smaller, 2),
        ]
        findings = lint_records(ccc, records)
        assert [(f.code, f.severity) for f in findings] == [("CC1", "error")]
        assert "rec-2" in findings[0].path

    def test_cc1_exemption_covers_difference(self, med_headings):
        data = ccc_document(
            context_exemptions=[
                {"resource_type": "Book", "field": "pages", "reason": "serials"}
            ]
        )
        code = load_catalogue_code(json.dumps(data))
        smaller = {k: v for k, v in FULL_IMPRINT.items() if k != "pages"}
        records = [
            self.build(code, med_headings, FULL_IMPRINT, 1),
            self.build(code, med_headings, smaller, 2),
        ]
        assert lint_records(code, records) == []

    def test_cc2_foreign_heading_flagged(self, ccc, med_headings):
        record = self.build(ccc, med_headings, FULL_IMPRINT, 1)
        import dataclasses

        doctored = dataclasses.replace(
            record, headings=record.headings + (SubjectHeading("Doodles", "ZZZ"),)
        )
        findings = lint_records(ccc, [doctored])
        assert [(f.code, f.severity) for f in findings] == [("CC2", "warning")]

    def test_cc2_sought_field_heading_allowed(self, ccc, med_headings):
        record = self.build(ccc, med_headings, FULL_IMPRINT, 1)
        import dataclasses

        doctored = dataclasses.replace(
            record,
            headings=record.headings + (SubjectHeading(FULL_IMPRINT["title"], ""),),
        )
        assert lint_records(ccc, [doctored]) == []

    def test_cc2_each_unsought_field_heading_flagged(self, ccc, med_headings):
        """Book has two sought fields and four unsought ones: a heading from
        a sought field's value, or from the chain, passes; one from any
        unsought field's value is flagged."""
        import dataclasses

        record = self.build(ccc, med_headings, FULL_IMPRINT, 1)
        extra = [SubjectHeading(FULL_IMPRINT[key], "") for key in FULL_IMPRINT]
        extra.append(SubjectHeading(FULL_IMPRINT["publisher"], "L,9C"))
        doctored = dataclasses.replace(record, headings=record.headings + tuple(extra))
        findings = lint_records(ccc, [doctored])
        first = len(record.headings)
        assert [(f.code, f.path, f.message) for f in findings] == [
            (
                "CC2",
                f"Book/rec-1/headings/{first + index}",
                f"heading {FULL_IMPRINT[key]!r} derives from neither the chain nor a sought field",
            )
            for index, key in enumerate(FULL_IMPRINT)
            if key not in ("title", "author")
        ]

    def test_cc3_template_without_placeholder(self, med_headings):
        data = ccc_document(
            local_variations=[{"field": "date", "template": "published"}]
        )
        code = load_catalogue_code(json.dumps(data))
        findings = lint_records(code, [])
        assert [(f.code, f.severity) for f in findings] == [("CC3", "error")]

    def test_empty_is_clean_and_monotone(self, ccc, med_headings):
        assert lint_records(ccc, []) == []
        records = []
        for accession in range(1, 4):
            records.append(self.build(ccc, med_headings, FULL_IMPRINT, accession))
            assert lint_records(ccc, records) == []

    def test_unknown_resource_type_rejected(self, ccc, med_headings):
        record = self.build(ccc, med_headings, FULL_IMPRINT, 1)
        import dataclasses

        alien = dataclasses.replace(record, resource_type="Serial")
        with pytest.raises(ValueError, match="unknown resource type"):
            lint_records(ccc, [alien])
