"""The one parent-cycle walk, the loaders that share it, and ``lint_etg``'s
chain table, against the per-member walks and scans they replaced."""

from __future__ import annotations

import json
import random

import pytest

from facetforge.core import FormatError, Label, parent_cycles
from facetforge.etg import (
    EntityType,
    EntityTypeGraph,
    EtgLintConfig,
    lint_etg,
    load_etg,
)
from facetforge.lexsem import hypernym_path, load_lexsem
from facetforge.ontology import (
    DatasetSchema,
    SchemaClass,
    build_lightweight_ontology,
    validate_backbone,
)
from facetforge.schedule import load_schedule
from helpers import (
    random_cyclic_etg_document,
    random_cyclic_lexsem_document,
    random_cyclic_schedule_document,
    random_etg,
    random_lint_etg,
    scan_chain,
    scan_etg_load_error,
    scan_genus_cycle,
    scan_lexsem_load_error,
    scan_lint_etg,
    scan_schedule_load_error,
)


def load_error(load, document: str) -> str | None:
    try:
        load(document)
    except FormatError as exc:
        return str(exc)
    return None


def cycles(parents: dict) -> list:
    """The cycles of a map from each member straight to its parent."""
    return list(parent_cycles(parents, lambda parent: parent))


class TestParentCycles:
    def test_trees_have_none(self):
        assert cycles({}) == []
        assert cycles({"a": None, "b": "a", "c": "b", "d": "a"}) == []

    def test_each_cycle_once_with_the_member_that_closes_it(self):
        parents = {"x": "b", "a": "c", "b": "a", "c": "b", "s": "s", "t": None}
        # The walk from x passes b, a, c and meets b again; c's parent closes it.
        assert cycles(parents) == [("c", ["a", "b", "c"]), ("s", ["s"])]

    def test_walks_stop_at_parents_outside_the_map(self):
        assert cycles({"a": "absent", "b": "a", "c": "d", "d": "c"}) == [
            ("d", ["c", "d"])
        ]

    def test_integer_members(self):
        assert cycles({1: 2, 2: 3, 3: 1, 4: 1}) == [(3, [1, 2, 3])]


class TestLoadErrors:
    """Each loader names the first broken member in stored order, as the
    walks it replaced did."""

    @pytest.mark.parametrize(
        ("generate", "load", "oracle"),
        [
            (random_cyclic_schedule_document, load_schedule, scan_schedule_load_error),
            (random_cyclic_etg_document, load_etg, scan_etg_load_error),
            (random_cyclic_lexsem_document, load_lexsem, scan_lexsem_load_error),
        ],
        ids=["schedule", "etg", "lexsem"],
    )
    def test_errors_match_the_chain_scans(self, generate, load, oracle):
        cycles = clean = 0
        for seed in range(600):
            document = generate(random.Random(seed))
            expected = oracle(document)
            assert load_error(load, document) == expected, seed
            cycles += expected is not None and "root" not in expected
            clean += expected is None
        assert cycles >= 300 and clean >= 50, (cycles, clean)


class TestLintEtg:
    CONFIGS = [
        None,
        EtgLintConfig(stoplist=frozenset({"THE", "b"})),
        EtgLintConfig(enabled=frozenset({"EP1", "EP3"})),
        EtgLintConfig(enabled=frozenset({"NP2", "CH1", "IC4"}), stoplist=frozenset({"a"})),
    ]

    @pytest.mark.parametrize("generate", [random_etg, random_lint_etg])
    def test_findings_match_the_chain_and_property_scans(self, generate):
        seen: set[str] = set()
        for seed in range(400):
            etg = generate(random.Random(seed))
            config = self.CONFIGS[seed % len(self.CONFIGS)]
            expected = scan_lint_etg(etg, config)
            assert lint_etg(etg, config) == expected, seed
            seen.update(f.code for f in expected)
        assert seen >= {"NP1", "NP2", "IC4", "CH1", "EP1", "EP3"}
        if generate is random_lint_etg:
            assert seen >= {"VP1", "EP2"}

    def test_a_20000_type_chain_loads_and_lints(self):
        ids = [f"T{i}" for i in range(20000)]
        types = [
            {"id": type_id, "label": f"Type {i}", "differentiating": [f"d{i}"],
             "parent": ids[i - 1] if i else None}
            for i, type_id in enumerate(ids)
        ]
        data = [
            {"name": "name", "domain": ids[0], "datatype": "string", "identifying": True},
            {"name": "note", "domain": ids[1], "datatype": "string"},
        ]
        document = {"id": "deep", "types": types, "data_properties": data}
        assert lint_etg(load_etg(json.dumps(document))) == []

        data.append({"name": "note", "domain": ids[-1], "datatype": "string"})
        findings = lint_etg(load_etg(json.dumps(document)))
        assert [(f.code, f.path) for f in findings] == [("EP3", f"types/{ids[-1]}/note")]

        types[1]["parent"] = ids[-1]  # T1 to T19999 now form a loop
        etg = EntityTypeGraph("deep", tuple(
            EntityType(t["id"], Label(t["label"]), t["parent"]) for t in types
        ))
        with pytest.raises(ValueError) as scanned:
            scan_chain(etg, "T1")
        assert str(scanned.value) == "ETG deep: broken parent chain at 'T2'"
        assert load_error(load_etg, json.dumps(document)) == str(scanned.value)


class TestGenusChain:
    def test_a_20000_synset_chain_loads_and_builds_a_clean_backbone(self):
        ids = [f"s{i}" for i in range(20000)]
        synsets = [
            {"id": synset_id, "lemmas": [f"w{i}"], "genus": ids[i - 1] if i else None,
             "differentia": ["d"] if i else []}
            for i, synset_id in enumerate(ids)
        ]
        document = {"id": "deep", "languages": {"en": {"synsets": synsets}}}
        resource = load_lexsem(json.dumps(document))
        assert [s.id for s in hypernym_path(resource, ids[-1])] == ids[::-1]
        ontology, findings = build_lightweight_ontology(
            resource, "en", DatasetSchema((SchemaClass(f"W{len(ids) - 1}"),))
        )
        assert findings == [] and len(ontology.nodes) == len(ids)
        assert validate_backbone(ontology) == []

        synsets[1]["genus"] = ids[-1]  # s1 to s19999 now form a loop
        looped = dict(resource.hierarchies["en"])
        looped[ids[1]] = looped[ids[1]]._replace(genus=ids[-1])
        expected = f"language en: genus cycle {{{', '.join(sorted(ids[1:]))}}}"
        assert scan_genus_cycle("en", looped) == expected
        assert load_error(load_lexsem, json.dumps(document)) == expected
