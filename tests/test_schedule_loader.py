"""``load_schedule`` against the loader that read one concept at a time, and
the contract of the ``Concept`` and ``Label`` named tuples it builds."""

from __future__ import annotations

import copy
import hashlib
import json
import pickle
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from facetforge import schedule as schedule_module
from facetforge.catalogue import CallNumber
from facetforge.core import Fields, FormatError, Label, holds_stopword, stopword_findings
from facetforge.eg import Literal
from facetforge.facet import SubjectHeading
from facetforge.fixtures import fixture_text
from facetforge.schedule import Concept, lint_schedule, load_schedule
from helpers import oracle_load_schedule, random_schedule_document


def outcome(load, document: str) -> tuple[str, str]:
    """What *load* makes of *document*: its schedule's ``repr`` or its error."""
    try:
        return "loaded", repr(load(document))
    except FormatError as exc:
        return "refused", str(exc)


def test_valid_documents_load_as_the_oracle_loads_them():
    for seed in range(300):
        document = random_schedule_document(random.Random(seed))
        schedule = load_schedule(document)
        assert schedule == oracle_load_schedule(document), seed
        assert outcome(load_schedule, document) == outcome(oracle_load_schedule, document), seed
        for category in schedule.categories:
            assert {type(c) for c in category.concepts} <= {Concept}
            assert {type(c.label) for c in category.concepts} <= {Label}


def test_faulty_documents_fail_as_the_oracle_fails():
    seen = Counter()
    for seed in range(300):
        for faults in (1, 2):
            document = random_schedule_document(random.Random(seed), faults)
            result = outcome(load_schedule, document)
            assert result == outcome(oracle_load_schedule, document), (seed, faults)
            seen[result[0]] += 1
    assert seen["refused"] >= 300 and seen["loaded"] >= 100, seen


def test_a_clean_schedule_is_read_without_a_per_concept_fields_read(monkeypatch):
    """A silent fall-back to reading each concept on its own fails here."""
    reads = Counter()
    read = Fields.read

    def counting(self, raw, where):
        reads["concept" if self is schedule_module._CONCEPT else "other"] += 1
        return read(self, raw, where)

    monkeypatch.setattr(Fields, "read", counting)
    for seed in range(60):
        reads.clear()
        schedule = load_schedule(random_schedule_document(random.Random(seed)))
        assert reads == Counter(other=2 + len(schedule.categories)), seed


def test_the_med_fixture_prints_as_it_did_with_dataclasses(med):
    # SHA-256 of repr(load_schedule(med fixture)) when Concept and Label
    # were frozen dataclasses.
    digest = hashlib.sha256(repr(med).encode()).hexdigest()
    assert digest == "2051595903b27de43855b1ab283b01595dc9c2017a51095920033505d4f785bd"


class TestConceptLabelContract:
    """``Concept`` and ``Label``, and the catalogue's ``CallNumber`` and
    ``SubjectHeading``, are validated named tuples like ``Iri``: equal and
    hashed like the plain tuples of their fields, checked however they are
    made."""

    LABEL = Label("Child")
    CONCEPT = Concept("child", "9C", LABEL, ("ByAffectedPerson", "child"), "person", False, True, 2)
    PLAIN = (
        "child", "9C", ("Child", "en"), ("ByAffectedPerson", "child"), "person", False, True, 2
    )
    CALL = CallNumber("L", "SCH73")
    HEADING = SubjectHeading("Medicine", "L")

    def test_equal_and_hash_like_plain_tuples(self):
        assert Concept._fields == (
            "id", "notation", "label", "characteristic_value", "parent", "sought", "residual",
            "ordinal",
        )
        assert Label._fields == ("text", "language")
        assert self.LABEL == ("Child", "en") and hash(self.LABEL) == hash(("Child", "en"))
        assert self.CONCEPT == self.PLAIN and hash(self.CONCEPT) == hash(self.PLAIN)
        assert Concept(*self.PLAIN[:2], Label("Child"), *self.PLAIN[3:]) == self.CONCEPT
        assert CallNumber._fields == ("class_part", "book_part")
        assert SubjectHeading._fields == ("heading", "reference")
        assert self.CALL == ("L", "SCH73") and hash(self.CALL) == hash(("L", "SCH73"))
        assert self.HEADING == ("Medicine", "L")
        assert hash(self.HEADING) == hash(("Medicine", "L"))
        assert SubjectHeading("Medicine", "L,9C") != self.HEADING

    def test_defaults(self):
        base = Concept("base", "L", Label("Medicine"))
        assert tuple(base)[3:] == (None, None, True, False, 0)
        assert Label("Medicine").language == "en"

    def test_a_concept_never_equals_a_label(self):
        label = Label("x")
        values = [label, Concept("x", "en", label), Concept("x", "en", label, ("x", "en"))]
        for first in values:
            for second in values:
                assert (first == second) is (first is second)
        assert len(set(values)) == 3

    def test_repr_is_what_the_dataclasses_printed(self):
        assert repr(self.CONCEPT) == (
            "Concept(id='child', notation='9C', label=Label(text='Child', language='en'),"
            " characteristic_value=('ByAffectedPerson', 'child'), parent='person',"
            " sought=False, residual=True, ordinal=2)"
        )
        assert repr(Label("Kinder", "de")) == "Label(text='Kinder', language='de')"
        assert repr(Concept("base", "L", Label("Medicine"))) == (
            "Concept(id='base', notation='L', label=Label(text='Medicine', language='en'),"
            " characteristic_value=None, parent=None, sought=True, residual=False, ordinal=0)"
        )
        assert repr(self.CALL) == "CallNumber(class_part='L', book_part='SCH73')"
        assert repr(self.HEADING) == "SubjectHeading(heading='Medicine', reference='L')"

    def test_slots_and_no_attribute_writes(self):
        for value in (self.CONCEPT, self.LABEL, self.CALL, self.HEADING):
            assert type(value).__slots__ == () and not hasattr(value, "__dict__")
            with pytest.raises(AttributeError):
                value.extra = 1
        with pytest.raises(AttributeError):
            self.CONCEPT.notation = "9D"
        with pytest.raises(AttributeError):
            self.LABEL.text = "Adult"
        with pytest.raises(AttributeError):
            self.CALL.book_part = "AB12"

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Concept("x", "", Label("x")),
            lambda: Concept(id="x", notation="", label=Label("x")),
            lambda: Concept._make(["x", "", Label("x")]),
            lambda: TestConceptLabelContract.CONCEPT._replace(notation=""),
            lambda: Label(""),
            lambda: Label(" \n"),
            lambda: Label(5),
            lambda: Label(text="x", language="e"),
            lambda: Label._make(["", "en"]),
            lambda: TestConceptLabelContract.LABEL._replace(text="  "),
            lambda: TestConceptLabelContract.LABEL._replace(language="en_GB"),
            lambda: CallNumber("L", "sch73"),
            lambda: CallNumber(class_part="L", book_part="SCH7"),
            lambda: CallNumber("L", 73),
            lambda: CallNumber(7, "SCH73"),
            lambda: CallNumber._make([None, "SCH73"]),
            lambda: TestConceptLabelContract.CALL._replace(book_part=""),
            lambda: TestConceptLabelContract.CALL._replace(class_part=b"L"),
            lambda: SubjectHeading("", "L"),
            lambda: SubjectHeading(heading=5, reference="L"),
            lambda: SubjectHeading("Medicine", None),
            lambda: SubjectHeading._make([["Medicine"], "L"]),
            lambda: TestConceptLabelContract.HEADING._replace(heading=""),
            lambda: TestConceptLabelContract.HEADING._replace(reference=7),
        ],
    )
    def test_every_construction_path_checks(self, make):
        with pytest.raises(
            ValueError,
            match="notation is empty|label text is empty|invalid language tag|invalid book part"
            "|class part must be a string|subject heading is empty|subject heading parts",
        ):
            make()

    def test_keyword_make_and_replace_build_the_same_values(self):
        fields = dict(zip(Concept._fields, self.CONCEPT))
        assert Concept(**fields) == Concept._make(self.CONCEPT) == self.CONCEPT
        assert Label(text="Child", language="en") == Label._make(["Child"]) == self.LABEL
        moved = self.CONCEPT._replace(parent=None)
        assert type(moved) is Concept and moved.parent is None
        assert type(self.LABEL._replace(language="de")) is Label
        assert CallNumber(book_part="SCH73", class_part="L") == CallNumber._make(self.CALL)
        assert SubjectHeading(reference="L", heading="Medicine") == self.HEADING
        moved = self.CALL._replace(book_part="SCH7342")
        assert type(moved) is CallNumber and moved == ("L", "SCH7342")
        assert type(self.HEADING._replace(reference="")) is SubjectHeading

    def test_copies_and_pickles_check_and_give_back_equal_values(self):
        forged = [
            tuple.__new__(Concept, ("x", "", self.LABEL, None, None, True, False, 0)),
            tuple.__new__(Label, ("", "en")),
            tuple.__new__(Label, ("x", "e")),
            tuple.__new__(CallNumber, ("L", "sch73")),
            tuple.__new__(CallNumber, (7, "SCH73")),
            tuple.__new__(SubjectHeading, ("", "L")),
            tuple.__new__(SubjectHeading, ("Medicine", 5)),
        ]
        # A forged label inside a concept: every rebuild but a shallow copy,
        # which shares the label, makes the label again.
        nested = Concept("x", "1", tuple.__new__(Label, (" ", "en")))
        rebuilds = [copy.copy, copy.deepcopy] + [
            lambda value, protocol=protocol: pickle.loads(pickle.dumps(value, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for rebuild in rebuilds:
            for value in (self.CONCEPT, self.LABEL, self.CALL, self.HEADING):
                again = rebuild(value)
                assert again == value and type(again) is type(value)
            for value in (self.CONCEPT, self.LABEL):
                again = rebuild(value)
                assert type(again[2] if type(value) is Concept else again) is Label
            for value in forged + [nested] * (rebuild is not copy.copy):
                with pytest.raises(ValueError):
                    rebuild(value)

    @pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in 3.13")
    def test_copy_replace_checks(self):
        assert copy.replace(self.CONCEPT, ordinal=3).ordinal == 3
        assert copy.replace(self.LABEL, text="Kinder", language="de") == ("Kinder", "de")
        with pytest.raises(ValueError, match="notation is empty"):
            copy.replace(self.CONCEPT, notation="")
        with pytest.raises(ValueError, match="label text is empty"):
            copy.replace(self.LABEL, text="")
        assert copy.replace(self.CALL, book_part="AB12") == ("L", "AB12")
        assert copy.replace(self.HEADING, reference="L,9C") == ("Medicine", "L,9C")
        with pytest.raises(ValueError, match="invalid book part"):
            copy.replace(self.CALL, book_part="ab12")
        with pytest.raises(ValueError, match="subject heading is empty"):
            copy.replace(self.HEADING, heading="")

    def test_a_label_equals_a_literal_of_the_same_pair(self):
        """Named tuples compare as tuples: a ``Label`` and a ``Literal`` of
        the same two strings are equal.  The two never meet in one
        container: labels live in schedules and ETGs, literals in graphs."""
        assert Label("Small", "string") == Literal("Small", "string")

    def test_a_call_number_equals_a_heading_of_the_same_pair(self):
        """Likewise a ``CallNumber`` and a ``SubjectHeading`` of the same two
        strings are equal.  A record keeps them in different fields, and
        ``build_record`` takes neither for the other."""
        assert CallNumber("L", "AB12") == SubjectHeading("L", "AB12")


# ---------------------------------------------------------------------------
# lint_schedule's stopword pre-check and its NP2 table


@pytest.mark.parametrize(
    "labels",
    [[], ["Alpha"], ["General medicine"], ["misc", "Misc."], ["x\u212ay", "\u212aelvin"],
     ["GENERAL"], ["Général"], ["a-general", "general-b"]],
)
def test_stopword_pre_check_agrees_with_the_per_label_findings(labels):
    stoplist = {"general", "misc", "kelvin", "xky"}
    expected = any(stopword_findings("p", label, stoplist) for label in labels)
    assert holds_stopword(labels, stoplist) is expected


def test_a_kelvin_sign_is_not_a_k():
    """The Kelvin sign (U+212A) lowercases to ASCII ``k``.  The word pattern
    does not match the sign, so lowercasing each word after ``findall``
    keeps ``\u212aelvin`` from reading as ``kelvin``."""
    assert holds_stopword(["\u212aelvin"], {"kelvin"}) is False
    assert holds_stopword(["\u212aelvin", "Kelvin"], {"kelvin"}) is True


def test_lint_of_a_deep_prefix_free_chain_keeps_no_full_notation_table():
    depth = 3000
    document = json.dumps({
        "id": "DEEP", "base": {"id": "base", "notation": "L", "label": "Base"},
        "succession": ["ByPerson"], "stoplist": ["general"],
        "categories": [{"code": "P", "indicator": ",", "characteristic": "ByPerson", "concepts": [
            {"id": f"p{n}", "notation": "1", "label": f"P {n}", "value": f"v{n}",
             "parent": f"p{n - 1}" if n else None, "ordinal": 0}
            for n in range(depth)
        ]}],
    })
    schedule = load_schedule(document)
    tracemalloc.start()
    try:
        assert lint_schedule(schedule) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The full notations alone would hold depth * (depth + 1) / 2 = 4.5 million
    # characters.
    assert peak < 1_000_000, peak


def test_the_med_fixture_and_its_document_read_alike():
    text = fixture_text("med.schedule.json")
    assert outcome(load_schedule, text) == outcome(oracle_load_schedule, text)
