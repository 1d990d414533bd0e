"""Metamorphic properties of the entity-graph pipeline: changes to the
input that must leave the output byte for byte as it was."""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace
from pathlib import Path

from facetforge.eg import (
    DANGLING_POLICIES,
    MappingSpec,
    Triple,
    build_entity_graph,
    load_mapping_spec,
)
from facetforge.exports import (
    export_fca,
    export_jsongraph,
    export_ntriples,
    load_entity_graph_json,
    parse_ntriples,
)
from facetforge.fixtures import fixture_text
from helpers import AT, BASE, random_du_tables, random_faulty_tables

BENCH = Path(__file__).resolve().parent.parent / "bench"


def exports(graph):
    return export_ntriples(graph), export_jsongraph(graph), export_fca(graph)


def shuffled(rng, tables):
    return {name: rng.sample(rows, len(rows)) for name, rows in tables.items()}


class TestRowOrder:
    """Rows with unique ids within their dataset may come in any order."""

    def check_shuffles(self, rng, schema_graph, spec, tables):
        """The graph, its exports and its findings on *tables* and on three
        shuffles of their rows; returns the graph and its findings."""
        graph, findings = build_entity_graph(schema_graph, spec, tables, BASE, AT)
        expected = exports(graph)
        for _ in range(3):
            again, again_findings = build_entity_graph(
                schema_graph, spec, shuffled(rng, tables), BASE, AT
            )
            assert again == graph and exports(again) == expected
            assert again_findings == findings
        return graph, findings

    def test_fixture_shaped_tables(self, schema_graph, mapping_spec):
        rng = random.Random(31)
        sizes = []
        for _ in range(60):
            graph, _ = self.check_shuffles(rng, schema_graph, mapping_spec, random_du_tables(rng))
            sizes.append(len(graph.triples))
        assert max(sizes) >= 20

    def test_benchmark_batches_with_faults(self, schema_graph, gen):
        """Cast failures, skipped links and stubs, some shared by several
        rows: each stub is reported once, at the smallest path linking to
        it, whatever the row order."""
        spec = load_mapping_spec(gen.mapping_document("stub", "skip"), schema_graph)
        codes = set()
        shared_stubs = 0
        for seed in range(6):
            batch = gen.graph_batch(gen.rng_for(seed, "batch"), 80, 20, 10, 6, faults=True)
            _, findings = self.check_shuffles(random.Random(seed), schema_graph, spec, batch.tables)
            codes.update(f.code for f in findings)
            stubs = [f.message.split("'")[1] for f in findings if f.code == "LK3"]
            assert len(stubs) == len(set(stubs)) == batch.stubs
            authors = [row["author"] for row in batch.tables["books"]]
            shared_stubs += sum(authors.count(stub) > 1 for stub in stubs)
        assert {"IG1", "LK2", "LK3"} <= codes
        assert shared_stubs > 0

    def test_dataset_order(self, schema_graph, mapping_spec):
        """No two datasets of the fixture spec share an entity type, so no
        row id is claimed twice (IG3) and the order of the datasets shows
        only in the graph's ``sources``."""
        rng = random.Random(47)
        for _ in range(40):
            tables = random_du_tables(rng)
            graph, findings = build_entity_graph(schema_graph, mapping_spec, tables, BASE, AT)
            spec = MappingSpec(tuple(rng.sample(mapping_spec.datasets, 4)))
            again, again_findings = build_entity_graph(schema_graph, spec, tables, BASE, AT)
            assert again.sources == tuple(entry.id for entry in spec.datasets)
            assert again == replace(graph, sources=again.sources)
            assert again_findings == findings
            assert export_ntriples(again) == export_ntriples(graph)
            assert export_fca(again) == export_fca(graph)

    def test_every_dataset_order_with_mixed_policies(self, schema_graph):
        """Stubs, skipped links and the links that find a stub do not
        depend on the order of the datasets either.  The datasets with
        links take ``skip`` or ``stub``: under ``error`` the first missing
        target in dataset order raises."""
        rng = random.Random(53)
        data = json.loads(fixture_text("du.mapping.json"))
        codes = set()
        for _ in range(25):
            for entry in data["datasets"]:
                choices = ("skip", "stub") if entry["link_maps"] else DANGLING_POLICIES
                entry["dangling_policy"] = rng.choice(choices)
            spec = load_mapping_spec(json.dumps(data), schema_graph)
            tables = random_faulty_tables(rng, spec, bad_ids=False)
            graph, findings = build_entity_graph(schema_graph, spec, tables, BASE, AT)
            codes.update(f.code for f in findings)
            for order in itertools.permutations(spec.datasets):
                again, again_findings = build_entity_graph(
                    schema_graph, MappingSpec(order), tables, BASE, AT
                )
                assert again == replace(graph, sources=again.sources)
                assert again_findings == findings
        assert {"LK2", "LK3"} <= codes


class TestRoundTrips:
    def test_ntriples_json_ntriples_on_the_query_graph(self, gen):
        """N-Triples -> graph -> JSON -> graph -> N-Triples is the identity
        on the graph-query workload's graph."""
        sizes = json.loads((BENCH / "workloads.json").read_text())["workloads"]["graph-query"]
        sizes = sizes["sizes"]
        document = gen.query_graph_document(
            gen.rng_for(1, "graph"), sizes["books"], sizes["people"], sizes["orgs"], sizes["places"]
        ).document
        loaded = load_entity_graph_json(document)
        ntriples = export_ntriples(loaded)

        from_ntriples = replace(
            loaded, triples=tuple(sorted(parse_ntriples(ntriples), key=Triple.sort_key))
        )
        jsongraph = export_jsongraph(from_ntriples)
        from_json = load_entity_graph_json(jsongraph)
        assert from_json == from_ntriples == loaded
        assert export_ntriples(from_json) == ntriples
        assert export_jsongraph(from_json) == jsongraph == document.encode() + b"\n"
        assert len(loaded.triples) == 2020
