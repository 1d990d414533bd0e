from __future__ import annotations

import dataclasses
import random

import pytest

from facetforge.facet import (
    FormulaSlot,
    chain_index,
    chain_links,
    class_number_string,
    parse_class_number,
    parse_formula,
    synthesize_class_number,
)
from helpers import random_assignments, random_formula, random_schedule


class TestParseFormula:
    def test_full_formula(self, med):
        formula = parse_formula("[B],[P]:[E].[S]'[T?]", med)
        assert formula.slots == (
            FormulaSlot("P", True),
            FormulaSlot("E", True),
            FormulaSlot("S", True),
            FormulaSlot("T", False),
        )

    def test_unknown_code_rejected(self, med):
        with pytest.raises(ValueError, match="unknown category 'M'"):
            parse_formula("[B];[M]", med)

    def test_base_only_formula(self, med):
        assert parse_formula("[B]", med).slots == ()

    def test_missing_head_rejected(self, med):
        with pytest.raises(ValueError, match="missing \\[B\\] head"):
            parse_formula(",[P]", med)

    def test_indicator_mismatch_rejected(self, med):
        with pytest.raises(ValueError, match="indicator"):
            parse_formula("[B];[P]", med)

    def test_duplicate_code_rejected(self, med):
        with pytest.raises(ValueError, match="duplicate code P"):
            parse_formula("[B],[P]:[P]", med)


class TestSynthesize:
    def test_figure_subject(self, med, med_formula):
        number, text = synthesize_class_number(
            med, med_formula, {"P": "9C", "E": "421", "S": "44", "T": "N7"}
        )
        assert text == "L,9C:421.44'N7"
        assert number.facets == (
            ("P", ("child",)),
            ("E", ("disease", "tropical-disease")),
            ("S", ("india",)),
            ("T", ("decade-1970s",)),
        )

    def test_optional_slot_omitted(self, med, med_formula):
        _, text = synthesize_class_number(med, med_formula, {"P": "9C", "E": "4", "S": "44"})
        assert text == "L,9C:4.44"

    def test_missing_required_facet(self, med, med_formula):
        with pytest.raises(ValueError, match="required facet P missing"):
            synthesize_class_number(med, med_formula, {"E": "4", "S": "44"})

    def test_assignment_outside_formula(self, med):
        formula = parse_formula("[B],[P]", med)
        with pytest.raises(ValueError, match="not in formula"):
            synthesize_class_number(med, formula, {"P": "9C", "E": "4"})

    def test_slot_order_independent_of_map_order(self, med, med_formula):
        forward = {"P": "9C", "E": "421", "S": "44", "T": "N7"}
        backward = dict(reversed(list(forward.items())))
        assert (
            synthesize_class_number(med, med_formula, forward)[1]
            == synthesize_class_number(med, med_formula, backward)[1]
        )


class TestParseClassNumber:
    def test_inverse_of_synthesis(self, med, med_formula):
        number = parse_class_number(med, med_formula, "L,9C:421.44'N7")
        assert number.facets == (
            ("P", ("child",)),
            ("E", ("disease", "tropical-disease")),
            ("S", ("india",)),
            ("T", ("decade-1970s",)),
        )

    def test_base_only(self, med, med_formula):
        number = parse_class_number(med, med_formula, "L")
        assert number.facets == ()

    def test_unresolvable_facet(self, med, med_formula):
        with pytest.raises(ValueError, match="unresolvable P notation '9X'"):
            parse_class_number(med, med_formula, "L,9X")

    def test_base_mismatch(self, med, med_formula):
        with pytest.raises(ValueError, match="base does not match"):
            parse_class_number(med, med_formula, "M,9C")

    def test_out_of_order_indicator(self, med, med_formula):
        with pytest.raises(ValueError, match="unexpected indicator"):
            parse_class_number(med, med_formula, "L:4,9C")

    def test_trailing_garbage(self, med, med_formula):
        with pytest.raises(ValueError, match="trailing garbage"):
            parse_class_number(med, med_formula, "Lxx")
        with pytest.raises(ValueError, match="unresolvable P notation '9Cxx'"):
            parse_class_number(med, med_formula, "L,9Cxx")


class TestChainIndex:
    def test_four_link_chain(self, med, med_formula):
        number = parse_class_number(med, med_formula, "L,9C:4.44")
        headings = [(h.heading, h.reference) for h in chain_index(med, number)]
        assert headings == [
            ("India, Disease, Child, Medicine", "L,9C:4.44"),
            ("Disease, Child, Medicine", "L,9C:4"),
            ("Child, Medicine", "L,9C"),
            ("Medicine", "L"),
        ]

    def test_base_only_chain(self, med, med_formula):
        number = parse_class_number(med, med_formula, "L")
        assert [(h.heading, h.reference) for h in chain_index(med, number)] == [
            ("Medicine", "L")
        ]

    def test_unsought_link_skipped_but_kept_in_tails(self, med, med_formula):
        unsought = dataclasses.replace(
            med,
            categories=tuple(
                dataclasses.replace(
                    category,
                    concepts=tuple(
                        c._replace(sought=False) if c.id == "disease" else c
                        for c in category.concepts
                    ),
                )
                for category in med.categories
            ),
        )
        number = parse_class_number(unsought, med_formula, "L,9C:421.44'N7")
        headings = chain_index(unsought, number)
        assert len(headings) == 5
        assert all(h.reference != "L,9C:4" for h in headings)
        deepest = headings[0]
        assert "Disease" in deepest.heading
        assert deepest.heading == "1970s, India, Tropical disease, Disease, Child, Medicine"

    def test_references_parse_back(self, med, med_formula):
        number = parse_class_number(med, med_formula, "L,9C:421.44'N7")
        for heading in chain_index(med, number):
            parse_class_number(med, med_formula, heading.reference)


class TestRandomizedRoundTrip:
    def test_round_trip_and_chain_counts(self):
        rng = random.Random(777)
        for _ in range(300):
            schedule = random_schedule(rng)
            formula = random_formula(rng, schedule)
            assignments = random_assignments(rng, schedule, formula)
            number, text = synthesize_class_number(schedule, formula, assignments)
            assert parse_class_number(schedule, formula, text) == number
            assert class_number_string(schedule, number) == text

            links = chain_links(schedule, number)
            assert len(links) == 1 + sum(len(ids) for _, ids in number.facets)
            headings = chain_index(schedule, number)
            assert len(headings) == sum(link.sought for link in links)
            for heading, link in zip(headings, reversed([l for l in links if l.sought])):
                assert heading.reference == link.prefix
                assert text.startswith(heading.reference) or heading.reference == text
