"""``lint_schedule`` against its per-rule oracle, and the forest check it
shares with ``load_schedule``."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from facetforge.core import FormatError, Label
from facetforge.fixtures import fixture_text
from facetforge.schedule import (
    ClassificationSchedule,
    Concept,
    FacetCategory,
    LintConfig,
    lint_schedule,
    load_schedule,
)
from helpers import LINT_CODES, oracle_lint_schedule, random_lint_forest, random_schedule


def test_lint_matches_the_oracle_on_random_forests():
    fired = Counter()
    for seed in range(1500):
        schedule, config = random_lint_forest(random.Random(seed))
        findings = lint_schedule(schedule, config)
        assert findings == oracle_lint_schedule(schedule, config), seed
        fired.update(f.code for f in findings)
    assert all(fired[code] >= 100 for code in LINT_CODES), fired


def test_lint_matches_the_oracle_on_random_schedules_and_the_med_fixture(med):
    configs = (
        None,
        LintConfig(exhaustive_arrays=frozenset()),
        LintConfig(enabled=frozenset({"IC2", "IC3", "NP1"}), exhaustive_arrays=frozenset()),
    )
    for seed in range(300):
        schedule = random_schedule(random.Random(seed))
        for config in configs:
            assert lint_schedule(schedule, config) == oracle_lint_schedule(schedule, config)
    document = json.loads(fixture_text("med.schedule.json"))
    document["stoplist"] = ["tropical", "children"]
    for schedule in (med, load_schedule(json.dumps(document))):
        for config in configs:
            assert lint_schedule(schedule, config) == oracle_lint_schedule(schedule, config)
    assert [f.code for f in lint_schedule(load_schedule(json.dumps(document)))] == ["VP1"]


def test_lint_walks_a_chain_deeper_than_the_recursion_limit():
    """One finding at the leaf of a 3000-deep chain: its characteristic
    breaks the succession after 2999 concepts of one characteristic."""
    depth = 3000
    concepts = tuple(
        Concept(
            id=f"c{n}",
            notation="1",
            label=Label(f"C {n}"),
            characteristic_value=("late" if n == depth - 1 else "early", f"v{n}"),
            parent=f"c{n - 1}" if n else None,
        )
        for n in range(depth)
    )
    schedule = _schedule(FacetCategory("E", ":", "early", concepts))
    [found] = lint_schedule(schedule)
    assert (found.code, found.path.count("/"), found.message) == (
        "IC2", depth, "chain characteristics ['early', 'late'] do not follow"
        " succession ['late', 'early']",
    )


def _schedule(*categories: FacetCategory) -> ClassificationSchedule:
    return ClassificationSchedule(
        id="S",
        base=Concept(id="base", notation="L", label=Label("Base")),
        succession=("late", "early"),
        categories=categories,
    )


def _concept(cid: str, parent: str | None = None) -> Concept:
    return Concept(cid, "1", Label(cid), ("early", cid), parent)


# A category built in code whose concepts are not a forest, and the text
# that ``load_schedule`` gives for the same category and ``lint_schedule``
# now raises too.
FOREST_FAULTS = {
    "repeated id": (
        (_concept("a"), _concept("b", "a"), _concept("a", "b")),
        "category E: duplicate concept id 'a'",
    ),
    "dangling parent": (
        (_concept("a"), _concept("b", "gone"), _concept("c", "b")),
        "category E: dangling reference 'gone'",
    ),
    "parent cycle": (
        (_concept("r"), _concept("a", "b"), _concept("b", "a"), _concept("c", "r")),
        "category E: broken parent chain at 'b'",
    ),
    "a repeated id before a dangling parent and a cycle": (
        (_concept("a", "b"), _concept("b", "a"), _concept("c", "gone"), _concept("c")),
        "category E: duplicate concept id 'c'",
    ),
    "a dangling parent before a cycle": (
        (_concept("a", "b"), _concept("b", "a"), _concept("c", "gone")),
        "category E: dangling reference 'gone'",
    ),
}


@pytest.mark.parametrize("fault", FOREST_FAULTS)
def test_lint_refuses_a_category_that_is_not_a_forest_with_the_loader_text(fault):
    concepts, message = FOREST_FAULTS[fault]
    clean = FacetCategory("P", ",", "early", (_concept("p"),))
    schedule = _schedule(clean, FacetCategory("E", ":", "early", concepts))
    with pytest.raises(FormatError) as caught:
        lint_schedule(schedule)
    assert str(caught.value) == message
    document = {
        "id": "S", "base": {"id": "base", "notation": "L", "label": "Base"},
        "succession": ["early"],
        "categories": [{
            "code": "E", "indicator": ":", "characteristic": "early",
            "concepts": [
                {"id": c.id, "notation": str(n), "label": c.id, "value": c.id,
                 "parent": c.parent, "ordinal": n}
                for n, c in enumerate(concepts)
            ],
        }],
    }
    with pytest.raises(FormatError) as loaded:
        load_schedule(json.dumps(document))
    assert str(loaded.value) == message


def test_the_loader_reports_a_parent_cycle_before_a_bad_category_code():
    """The one order that sharing the forest check changed: the forest is
    now checked before the category is built, so a cycle comes first."""
    document = json.loads(fixture_text("med.schedule.json"))
    category = document["categories"][1]
    category["code"] = "EE"
    for concept in category["concepts"][0], category["concepts"][2]:
        concept["parent"] = "tropical-disease"
    with pytest.raises(FormatError) as caught:
        load_schedule(json.dumps(document))
    assert str(caught.value) == "category EE: broken parent chain at 'tropical-disease'"
