"""The hierarchy indexes against the linear scans they replaced."""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from facetforge.fixtures import fixture_text
from facetforge.lexsem import resolve_sense
from facetforge.ontology import LightweightOntology, OntologyNode, validate_backbone
from facetforge.core import Label
from facetforge.schedule import (
    Concept,
    FacetCategory,
    children,
    full_notation,
    load_schedule,
    resolve_notation,
)
from facetforge.schedule import _resolve_in_category
from helpers import (
    random_etg,
    random_lexicon,
    random_ontology,
    random_tangled_schedule,
    scan_chain,
    scan_children,
    scan_children_of,
    scan_effective,
    scan_full_notation,
    scan_ontology_children,
    scan_resolve_in_category,
    scan_resolve_sense,
    scan_root_of,
    scan_roots,
    scan_validate_backbone,
)


def outcome(function, *args):
    """The result of a call, or the type and text of the error it raised."""
    try:
        return function(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestScheduleIndex:
    def test_lookups_match_linear_scans(self):
        repeated = looped = 0
        for seed in range(300):
            schedule = random_tangled_schedule(random.Random(seed))
            for category in schedule.categories:
                ids = [c.id for c in category.concepts]
                repeated += len(ids) != len(set(ids))
                assert category.roots() == scan_roots(category)
                for concept in category.concepts:
                    assert category.children_of(concept.id) == scan_children_of(
                        category, concept.id
                    )
                    expected = outcome(scan_full_notation, category, concept)
                    looped += isinstance(expected, tuple)
                    assert outcome(full_notation, category, concept) == expected
                    assert outcome(children, schedule, concept.id) == outcome(
                        scan_children, schedule, concept.id
                    )
                assert category.children_of("absent") == []
            for concept_id in ("base", "absent"):
                assert outcome(children, schedule, concept_id) == outcome(
                    scan_children, schedule, concept_id
                )
        assert repeated >= 50 and looped >= 10

    def test_resolution_matches_sibling_scan(self):
        """Tangled categories repeat segments (two siblings "1") and are not
        prefix-free ("1" and "12" side by side)."""
        rng = random.Random(11)
        outcomes = {"resolved": 0, "no match": 0, "ambiguous": 0}
        for seed in range(300):
            schedule = random_tangled_schedule(random.Random(seed))
            for category in schedule.categories:
                notations = {
                    "".join(rng.choice("123AB") for _ in range(rng.randint(1, 6)))
                    for _ in range(20)
                }
                for concept in category.concepts:
                    notation = outcome(scan_full_notation, category, concept)
                    if isinstance(notation, str):
                        notations.update((notation, notation + "2", notation[:-1] or "9"))
                for notation in sorted(notations):
                    expected = outcome(scan_resolve_in_category, category, notation)
                    assert outcome(resolve_notation, schedule, notation, category.code) == expected
                    if isinstance(expected, list):
                        outcomes["resolved"] += 1
                    else:
                        outcomes["ambiguous" if "ambiguous" in expected[1] else "no match"] += 1
        assert min(outcomes.values()) >= 1000, outcomes

    def test_resolution_in_wide_arrays_matches_sibling_scan(self):
        """3000 roots whose segments overlap as prefixes, a few of them
        repeated, with 3000 children spread under them."""
        rng = random.Random(12)
        segments: set[str] = set()
        while len(segments) < 3000:
            segments.add("".join(rng.choice("0123456789") for _ in range(rng.randint(1, 5))))
        roots = sorted(segments) + rng.sample(sorted(segments), 30)
        concepts = [
            Concept(f"r{n}", notation, Label(f"R {n}"), ("division-0", f"r{n}"))
            for n, notation in enumerate(roots)
        ]
        concepts += [
            Concept(f"k{n}", rng.choice(["0", "1", "01", "10", "2"]), Label(f"K {n}"),
                    ("division-0", f"k{n}"), parent=rng.choice(concepts).id)
            for n in range(3000)
        ]
        category = FacetCategory("P", ",", "division-0", tuple(concepts))
        notations = [c.notation + rng.choice(["", "0", "1", "01", "9"]) for c in concepts[:3030]]
        notations += ["".join(rng.choice("0123456789") for _ in range(8)) for _ in range(300)]
        outcomes = Counter()
        for notation in notations:
            expected = outcome(scan_resolve_in_category, category, notation)
            assert outcome(_resolve_in_category, category, notation) == expected
            if isinstance(expected, list):
                outcomes[f"depth {len(expected)}"] += 1
            else:
                outcomes["ambiguous" if "ambiguous" in expected[1] else "no match"] += 1
        assert len(outcomes) == 4 and min(outcomes.values()) >= 20, outcomes

    def test_two_loads_compare_equal_and_hash_alike(self):
        first = load_schedule(fixture_text("med.schedule.json"))
        second = load_schedule(fixture_text("med.schedule.json"))
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        for index in ("_by_id", "_children", "_segments"):
            assert index not in repr(first)


class TestLexiconIndex:
    def test_lookups_match_linear_scans(self):
        shared = 0
        for seed in range(300):
            rng = random.Random(seed)
            resource = random_lexicon(rng)
            for tag, synsets in resource.hierarchies.items():
                assert outcome(resource.root_of, tag) == outcome(scan_root_of, resource, tag)
                holders: dict[str, int] = {}
                for synset in synsets.values():
                    for lemma in synset.lemmas:
                        holders[lemma] = holders.get(lemma, 0) + 1
                shared += sum(count > 1 for count in holders.values())
                for lemma in ("bank", "BOOK", "Press", "absent"):
                    assert outcome(resolve_sense, resource, lemma, tag) == outcome(
                        scan_resolve_sense, resource, lemma, tag
                    )
            assert outcome(resolve_sense, resource, "bank", "xx") == outcome(
                scan_resolve_sense, resource, "bank", "xx"
            )
        assert shared >= 300


class TestOntologyIndex:
    def test_children_match_linear_scan(self):
        for seed in range(300):
            ontology = random_ontology(random.Random(seed))
            for node_id in [*ontology.nodes, "absent", None]:
                assert ontology.children(node_id) == scan_ontology_children(ontology, node_id)

    def test_backbone_findings_match_chain_scan(self):
        cycles = 0
        for seed in range(300):
            rng = random.Random(seed)
            nodes = dict(random_ontology(rng).nodes)
            ids = list(nodes)
            # Re-point a few parents: cycles, dangling parents and extra roots.
            for node_id in rng.sample(ids, min(len(ids), rng.randint(0, 4))):
                parent = rng.choice([*ids, "absent", None])
                nodes[node_id] = dataclasses.replace(nodes[node_id], parent=parent)
            ontology = LightweightOntology(ids[0], nodes)
            expected = scan_validate_backbone(ontology)
            cycles += any("parent cycle" in f.message for f in expected)
            assert validate_backbone(ontology) == expected
        assert cycles >= 20

    def test_backbone_of_a_20000_node_chain(self):
        ids = [f"n{i}" for i in range(20000)]
        nodes = {
            node_id: OntologyNode(node_id, node_id, parent=ids[i - 1] if i else None)
            for i, node_id in enumerate(ids)
        }
        assert validate_backbone(LightweightOntology(ids[0], nodes)) == []
        nodes[ids[0]] = OntologyNode(ids[0], ids[0], parent=ids[-1])
        findings = validate_backbone(LightweightOntology(ids[0], nodes))
        assert [(f.code, f.path) for f in findings] == [("LO2", "nodes"), ("LO3", "nodes/n0")]
        assert findings[1].message == f"parent cycle {{{', '.join(sorted(ids))}}}"


class TestEtgIndex:
    def test_lookups_match_linear_scans(self):
        looped = 0
        for seed in range(300):
            etg = random_etg(random.Random(seed))
            first_declared = {t.id: t for t in reversed(etg.types)}
            assert etg.type_index() == first_declared
            for type_id in [*first_declared, "absent"]:
                expected = outcome(scan_chain, etg, type_id)
                looped += isinstance(expected, tuple) and type_id != "absent"
                assert outcome(etg.chain, type_id) == expected
                assert outcome(etg.effective_data_properties, type_id) == outcome(
                    scan_effective, etg, type_id, etg.data_properties
                )
                assert outcome(etg.effective_object_properties, type_id) == outcome(
                    scan_effective, etg, type_id, etg.object_properties
                )
                for ancestor in ("T0", "T1", "absent"):
                    assert outcome(etg.descends_from, type_id, ancestor) == outcome(
                        lambda: any(t.id == ancestor for t in scan_chain(etg, type_id))
                    )
        assert looped >= 10

    def test_type_index_is_read_only(self, du_etg):
        index = du_etg.type_index()
        with pytest.raises(TypeError):
            index["Person"] = None
        assert du_etg.type_index()["Person"].id == "Person"
