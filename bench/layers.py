"""Per-layer metrics of a traced run, computed from its spans and counts.

Time metrics are inclusive span time unless the name says self; ``s`` is per
set-up pass, ``s/op`` per timed op and ``s/batch`` per closing step of an op
batch.  ``<layer>.op_share`` is the layer's self time over all op time, so
the shares of one run sum to 1 with ``bench.op_share``, the benchmark's own
code inside an op.
"""

from __future__ import annotations

from collections import defaultdict

from spans import CLOSE_OP, LAYERS, Tracer
from workloads import SHAPES

SETUP, OP, CLOSE = "setup", "op", "close"


def per_layer(tracer: Tracer, loop, setup_counts: dict, passes: int) -> dict[str, tuple[str, float]]:
    own = tracer.self_times()
    inclusive = defaultdict(float)  # (phase, name) -> seconds
    exclusive = defaultdict(float)
    calls = defaultdict(int)
    by_shape = defaultdict(float)  # shape -> query.run_query seconds
    share = defaultdict(float)  # layer -> op self seconds
    for index in range(len(tracer)):
        name = tracer.names[tracer.name[index]]
        op = tracer.op[index]
        phase = OP if op >= 0 else CLOSE if op == CLOSE_OP else SETUP
        duration = tracer.end[index] - tracer.start[index]
        inclusive[phase, name] += duration
        exclusive[phase, name] += own[index]
        calls[phase, name] += 1
        if phase == OP:
            share[name.split(".", 1)[0]] += own[index]
            if name == "query.run_query":
                by_shape[loop.labels[op]] += duration

    ops = len(loop.latencies)
    batches = loop.batches
    op_time = inclusive[OP, "bench.op"]

    def setup(*names: str) -> float:
        return sum(inclusive[SETUP, n] for n in names) / passes

    def per_op(*names: str, self_time: bool = False) -> float:
        table = exclusive if self_time else inclusive
        return sum(table[OP, n] for n in names) / ops

    def calls_per_op(*names: str) -> float:
        return sum(calls[OP, n] for n in names) / ops

    def count(name: str) -> float:
        return loop.counts[name] / ops

    minted = sum(len(values) for values in tracer.minted.values())
    mint_calls = sum(n for (phase, name), n in calls.items() if name == "core.mint_iri")
    shape_ops = {shape: loop.labels.count(shape) for shape in SHAPES}

    metrics: dict[str, tuple[str, float]] = {
        # catalogue
        "schedule.load_s": ("s", setup("schedule.load_schedule")),
        "schedule.lint_s": ("s", setup("schedule.lint_schedule")),
        "schedule.concepts": ("count", setup_counts.get("schedule.concepts", 0)),
        "schedule.resolve_s": ("s/op", per_op("schedule.resolve_notation", "schedule.full_notation")),
        "schedule.resolve_calls": ("count/op", calls_per_op("schedule.resolve_notation", "schedule.full_notation")),
        "facet.synthesize_s": ("s/op", per_op("facet.synthesize_class_number")),
        "facet.parse_s": ("s/op", per_op("facet.parse_class_number")),
        "facet.chain_index_s": ("s/op", per_op("facet.chain_index", self_time=True)),
        "facet.headings": ("count/op", count("facet.headings")),
        "catalogue.call_number_s": ("s/op", per_op("catalogue.make_call_number")),
        "catalogue.record_s": ("s/op", per_op("catalogue.build_record", "catalogue.record_to_json")),
        "catalogue.lint_records_s": ("s/batch", inclusive[CLOSE, "catalogue.lint_records"] / batches),
        "catalogue.findings": ("count/batch", loop.close_counts["catalogue.findings"] / batches),
        # graph-build set-up
        "lexsem.load_s": ("s", setup("lexsem.load_lexsem")),
        "lexsem.synsets": ("count", setup_counts.get("lexsem.synsets", 0)),
        "lexsem.resolve_sense_s": ("s", setup("lexsem.resolve_sense")),
        "ontology.build_s": ("s", setup("ontology.build_lightweight_ontology")),
        "ontology.nodes": ("count", setup_counts.get("ontology.nodes", 0)),
        "etg.ground_s": ("s", setup("etg.ground")),
        "eg.load_spec_s": ("s", setup("eg.load_mapping_spec")),
        # graph-build ops
        "eg.build_s": ("s/op", per_op("eg.build_entity_graph", self_time=True)),
        "eg.rows_in": ("count/op", count("eg.rows_in")),
        "eg.triples_out": ("count/op", count("eg.triples_out")),
        "eg.findings_IG1": ("count/op", count("eg.findings_IG1")),
        "eg.findings_LK2": ("count/op", count("eg.findings_LK2")),
        "eg.findings_LK3": ("count/op", count("eg.findings_LK3")),
        "core.mint_iri_s": ("s/op", per_op("core.mint_iri")),
        "core.mint_iri_calls": ("count/op", calls_per_op("core.mint_iri")),
        "core.mint_iri_setup_s": ("s", setup("core.mint_iri")),
        "core.mint_iri_setup_calls": ("count", calls[SETUP, "core.mint_iri"] / passes),
        "core.mint_iri_useful_ratio": ("ratio", minted / mint_calls if mint_calls else 0.0),
        "exports.ntriples_s": ("s/op", per_op("exports.export_ntriples")),
        "exports.jsongraph_s": ("s/op", per_op("exports.export_jsongraph")),
        "exports.fca_s": ("s/op", per_op("exports.export_fca")),
        "eg.snapshot_s": ("s/op", per_op("eg.snapshot", self_time=True)),
        "exports.bytes_out": ("bytes/op", count("exports.bytes_out")),
        # graph-query
        "exports.load_json_s": ("s", setup("exports.load_entity_graph_json")),
        "exports.triples_in": ("count", setup_counts.get("exports.triples_in", 0)),
        "cli.parse_query_s": ("s/op", per_op("cli.parse_query_text")),
        "eg.terms_s": ("s/op", per_op("eg.terms")),
        "eg.terms_calls": ("count/op", calls_per_op("eg.terms")),
        "cli.names_resolved": ("count/op", count("cli.names_resolved")),
    }
    for shape in SHAPES:
        metrics[f"query.run_s.{shape}"] = (
            "s/op", by_shape[shape] / shape_ops[shape] if shape_ops[shape] else 0.0
        )
    metrics["query.rows_out"] = ("count/op", count("query.rows_out"))
    metrics["query.render_s"] = ("s/op", per_op("bench.render_rows"))
    for layer in (*LAYERS, "bench"):
        metrics[f"{layer}.op_share"] = ("ratio", share[layer] / op_time if op_time else 0.0)
    metrics["trace.spans"] = ("count", len(tracer))
    return metrics
