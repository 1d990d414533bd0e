from __future__ import annotations

import json
import random

import pytest

from facetforge.core import FormatError, Label
from facetforge.fixtures import fixture_text
from facetforge.schedule import (
    ClassificationSchedule,
    Concept,
    FacetCategory,
    LintConfig,
    children,
    full_notation,
    lint_schedule,
    load_schedule,
    resolve_notation,
)
from helpers import random_schedule


def med_document(**overrides):
    data = json.loads(fixture_text("med.schedule.json"))
    data.update(overrides)
    return data


def make_schedule(categories, succession=("ByAffectedPerson", "ByProblem", "BySpace", "ByTime"), stoplist=()):
    return ClassificationSchedule(
        id="SEED",
        base=Concept(id="base", notation="L", label=Label("Base")),
        succession=tuple(succession),
        categories=tuple(categories),
        reticence_stoplist=tuple(stoplist),
    )


def concept(cid, notation, label, characteristic, value, parent=None, ordinal=0, **kwargs):
    return Concept(
        id=cid,
        notation=notation,
        label=Label(label),
        characteristic_value=None if characteristic is None else (characteristic, value),
        parent=parent,
        ordinal=ordinal,
        **kwargs,
    )


class TestLoad:
    def test_med_fixture_resolves(self, med):
        assert med.id == "MED"
        assert med.base.notation == "L"
        assert med.base.label.text == "Medicine"
        assert [c.code for c in med.categories] == ["P", "E", "S", "T"]
        assert [c.indicator for c in med.categories] == [",", ":", ".", "'"]
        assert med.succession == ("ByAffectedPerson", "ByProblem", "BySpace", "ByTime")

    def test_dangling_parent_rejected(self):
        data = med_document()
        data["categories"][0]["concepts"][0]["parent"] = "XX"
        with pytest.raises(FormatError, match="dangling reference 'XX'"):
            load_schedule(json.dumps(data))

    def test_empty_categories_is_a_valid_schedule(self):
        data = med_document(categories=[])
        loaded = load_schedule(json.dumps(data))
        assert loaded.categories == ()
        assert lint_schedule(loaded) == []

    def test_unknown_keys_rejected(self):
        data = med_document(extra=1)
        with pytest.raises(FormatError, match="unknown keys"):
            load_schedule(json.dumps(data))

    def test_duplicate_concept_id_rejected(self):
        data = med_document()
        data["categories"][0]["concepts"][1]["id"] = "child"
        with pytest.raises(FormatError, match="duplicate concept id"):
            load_schedule(json.dumps(data))

    def test_parse_error_reports_position(self):
        with pytest.raises(FormatError, match="line 1"):
            load_schedule("{not json")

    def test_indicator_collision_rejected(self):
        data = med_document()
        data["categories"][1]["indicator"] = ","
        with pytest.raises(FormatError, match="already used"):
            load_schedule(json.dumps(data))

    def test_prefix_sharing_siblings_rejected(self):
        data = med_document()
        data["categories"][0]["concepts"][1]["notation"] = "9C1"
        with pytest.raises(FormatError, match="prefix-free"):
            load_schedule(json.dumps(data))

    def test_prefix_message_names_the_pair_first_in_stored_order(self):
        data = med_document()
        data["categories"][0]["concepts"][1]["notation"] = "9C1"
        with pytest.raises(FormatError) as caught:
            load_schedule(json.dumps(data))
        assert str(caught.value) == (
            "category P: sibling notations '9C' and '9C1' are not prefix-free"
        )
        concepts = data["categories"][1]["concepts"]
        concepts[0]["notation"], concepts[2]["notation"] = "31", "3"
        for cid, notation in (("x1", "1"), ("x12", "12")):
            concepts.append(dict(concepts[2], id=cid, notation=notation, value=cid, label=cid))
        data["categories"][0]["concepts"][1]["notation"] = "9E"
        with pytest.raises(FormatError) as caught:
            load_schedule(json.dumps(data))
        assert str(caught.value) == (
            "category E: sibling notations '3' and '31' are not prefix-free"
        )

    def test_flat_array_of_20k_siblings_loads(self):
        data = med_document()
        template = data["categories"][0]["concepts"][0]
        data["categories"][0]["concepts"] = [
            dict(template, id=f"c{n}", notation=f"{n:05d}", label=f"C {n}", value=f"v{n}",
                 ordinal=n)
            for n in range(20000)
        ]
        schedule = load_schedule(json.dumps(data))
        assert len(schedule.category("P").roots()) == 20000
        assert lint_schedule(schedule) == []
        assert [c.id for c in resolve_notation(schedule, "19999", "P")] == ["c19999"]

    def test_parent_cycle_rejected_at_its_first_broken_link(self):
        data = med_document()
        concepts = data["categories"][1]["concepts"]
        concepts[2]["parent"] = "tropical-disease"
        concepts[0]["parent"] = "tropical-disease"
        concepts.insert(0, concepts.pop(2))
        with pytest.raises(ValueError) as caught:
            load_schedule(json.dumps(data))
        assert str(caught.value) == "category E: broken parent chain at 'disease'"


class TestLintCleanFixture:
    def test_med_is_clean(self, med):
        assert lint_schedule(med) == []

    def test_lint_is_pure(self, med):
        assert lint_schedule(med) == lint_schedule(med)


class TestSeededViolations:
    """One minimal fixture per rule code; lint must report exactly that code."""

    def assert_exactly(self, schedule, code, config=None):
        findings = lint_schedule(schedule, config)
        assert [f.code for f in findings] == [code], findings

    def test_ic1_mixed_characteristics_in_array(self):
        category = FacetCategory(
            "E", ":", "ByProblem",
            (
                concept("disease", "4", "Disease", "ByProblem", "disease"),
                concept("india", "5", "India", "BySpace", "india", ordinal=1),
            ),
        )
        self.assert_exactly(make_schedule([category]), "IC1")

    def test_ic2_succession_inverted(self):
        category = FacetCategory(
            "E", ":", "ByProblem",
            (
                concept("disease", "4", "Disease", "ByProblem", "disease"),
                concept("child", "2", "Child", "ByAffectedPerson", "child", parent="disease"),
            ),
        )
        self.assert_exactly(make_schedule([category]), "IC2")

    def test_ic3_no_residual_when_not_exhaustive(self):
        category = FacetCategory(
            "P", ",", "ByAffectedPerson",
            (concept("child", "9C", "Child", "ByAffectedPerson", "child"),),
        )
        self.assert_exactly(
            make_schedule([category]),
            "IC3",
            LintConfig(exhaustive_arrays=frozenset()),
        )

    def test_ic3_satisfied_by_residual_child(self):
        category = FacetCategory(
            "P", ",", "ByAffectedPerson",
            (
                concept("child", "9C", "Child", "ByAffectedPerson", "child"),
                concept("other", "9Z", "Other persons", "ByAffectedPerson", "other",
                        ordinal=1, residual=True),
            ),
        )
        findings = lint_schedule(make_schedule([category]), LintConfig(exhaustive_arrays=frozenset()))
        assert findings == []

    def test_ic4_duplicate_sibling_label(self, med):
        data = med_document()
        data["categories"][1]["concepts"][2]["label"] = "Disease"
        findings = lint_schedule(load_schedule(json.dumps(data)))
        assert [(f.code, f.severity) for f in findings] == [("IC4", "error")]

    def test_ic4_duplicate_sibling_value(self):
        category = FacetCategory(
            "P", ",", "ByAffectedPerson",
            (
                concept("child", "9C", "Child", "ByAffectedPerson", "person"),
                concept("elderly", "9E", "Elderly", "ByAffectedPerson", "person", ordinal=1),
            ),
        )
        self.assert_exactly(make_schedule([category]), "IC4")

    def test_ic5_ordinals_out_of_order(self):
        category = FacetCategory(
            "P", ",", "ByAffectedPerson",
            (
                concept("child", "9C", "Child", "ByAffectedPerson", "child", ordinal=1),
                concept("elderly", "9E", "Elderly", "ByAffectedPerson", "elderly", ordinal=0),
            ),
        )
        self.assert_exactly(make_schedule([category]), "IC5")

    def test_ch1_concept_without_value(self):
        category = FacetCategory(
            "E", ":", "ByProblem",
            (
                concept("disease", "4", "Disease", "ByProblem", "disease"),
                concept("mystery", "2", "Mystery", None, None, parent="disease"),
            ),
        )
        self.assert_exactly(make_schedule([category]), "CH1")

    def test_ch1_child_repeats_parent_value(self):
        category = FacetCategory(
            "E", ":", "ByProblem",
            (
                concept("disease", "4", "Disease", "ByProblem", "disease"),
                concept("again", "2", "Disease again", "ByProblem", "disease", parent="disease"),
            ),
        )
        self.assert_exactly(make_schedule([category]), "CH1")

    def test_vp1_stoplist_hit(self):
        data = med_document(stoplist=["worthless"])
        data["categories"][1]["concepts"][2]["label"] = "Worthless remedies"
        findings = lint_schedule(load_schedule(json.dumps(data)))
        assert [(f.code, f.severity) for f in findings] == [("VP1", "error")]

    def test_np1_one_id_two_notations(self):
        categories = [
            FacetCategory("P", ",", "ByAffectedPerson",
                          (concept("shared", "9C", "Child", "ByAffectedPerson", "child"),)),
            FacetCategory("E", ":", "ByProblem",
                          (concept("shared", "4", "Disease", "ByProblem", "disease"),)),
        ]
        schedule = ClassificationSchedule(
            id="SEED",
            base=Concept(id="base", notation="L", label=Label("Base")),
            succession=("ByAffectedPerson", "ByProblem"),
            categories=tuple(categories),
        )
        findings = lint_schedule(schedule)
        assert [f.code for f in findings] == ["NP1"]

    def test_np2_one_notation_two_concepts(self):
        category = FacetCategory(
            "E", ":", "ByProblem",
            (
                concept("nine", "9", "Nine", "ByProblem", "nine"),
                concept("nine-c", "9C", "Nine C", "ByProblem", "nine-c", ordinal=1),
                concept("c-child", "C", "C child", "ByProblem", "c-child", parent="nine"),
            ),
        )
        self.assert_exactly(make_schedule([category]), "NP2")


class TestCharacteristics:
    def test_descriptions_resolve_by_name(self, med):
        import dataclasses

        from facetforge.schedule import Characteristic

        assert med.characteristic("ByProblem").description == ""
        described = dataclasses.replace(
            med,
            characteristics=(Characteristic("ByProblem", "divides by problem"),),
        )
        assert described.characteristic("ByProblem").description == "divides by problem"
        with pytest.raises(ValueError, match="unknown characteristic"):
            med.characteristic("ByColour")

    def test_descriptions_must_name_succession_entries(self, med):
        import dataclasses

        from facetforge.schedule import Characteristic

        with pytest.raises(ValueError, match="not in succession"):
            dataclasses.replace(med, characteristics=(Characteristic("Zz"),))


class TestRuleToggles:
    def test_disabled_rules_stay_silent(self):
        category = FacetCategory(
            "E", ":", "ByProblem",
            (
                concept("x", "1", "Twin", "ByProblem", "a"),
                concept("y", "2", "Twin", "ByProblem", "b", ordinal=1),
            ),
        )
        schedule = make_schedule([category])
        assert [f.code for f in lint_schedule(schedule)] == ["IC4"]
        assert lint_schedule(schedule, LintConfig(enabled=frozenset({"IC1"}))) == []


class TestResolveNotation:
    def test_category_ambiguity_reported(self):
        categories = [
            FacetCategory("P", ",", "ByAffectedPerson",
                          (concept("a", "9", "A", "ByAffectedPerson", "a"),)),
            FacetCategory("E", ":", "ByProblem",
                          (concept("b", "9", "B", "ByProblem", "b"),)),
        ]
        schedule = make_schedule(categories)
        with pytest.raises(ValueError, match="ambiguous across categories"):
            resolve_notation(schedule, "9")
        assert resolve_notation(schedule, "9", "P")[0].id == "a"

    def test_resolves_hierarchical_notation(self, med):
        path = resolve_notation(med, "421", "E")
        assert [(c.id, c.notation) for c in path] == [("disease", "4"), ("tropical-disease", "21")]
        assert full_notation(med.category("E"), path[-1]) == "421"

    def test_resolves_root_concept(self, med):
        path = resolve_notation(med, "9C", "P")
        assert [c.id for c in path] == ["child"]

    def test_no_match_reported(self, med):
        with pytest.raises(ValueError, match="no concept matches"):
            resolve_notation(med, "zz")

    def test_round_trip_for_every_concept(self, med):
        for category in med.categories:
            for target in category.concepts:
                path = resolve_notation(med, full_notation(category, target), category.code)
                assert path[-1].id == target.id

    def test_round_trip_on_random_schedules(self):
        rng = random.Random(20240101)
        for _ in range(25):
            schedule = random_schedule(rng)
            for category in schedule.categories:
                for target in category.concepts:
                    notation = full_notation(category, target)
                    path = resolve_notation(schedule, notation, category.code)
                    assert path[-1].id == target.id


class TestChildren:
    def test_children_sorted(self, med):
        kids = children(med, "disease")
        assert [c.id for c in kids] == ["tropical-disease"]

    def test_leaf_has_no_children(self, med):
        assert children(med, "decade-1970s") == []

    def test_unknown_concept_rejected(self, med):
        with pytest.raises(ValueError, match="unknown concept"):
            children(med, "nope")
