"""Command-line surface for the toolkit.

Exit codes: 0 on success (warnings allowed), 1 when error findings were
produced, 2 on usage or I/O problems.  Diagnostics go to stderr; payloads go
to stdout unless ``--out`` redirects them.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path
from typing import Sequence

from . import catalogue as catalogue_mod
from . import eg as eg_mod
from . import etg as etg_mod
from . import exports, ontology, query as query_mod, schedule as schedule_mod
from .core import ERROR, Finding, FormatError, Iri, parse_timestamp
from .facet import chain_index, parse_class_number, parse_formula, synthesize_class_number
from .lexsem import load_lexsem

__all__ = ["main", "run"]

REPO_ENV = "FACETFORGE_REPO"


class _UsageError(ValueError):
    """User-level input problem that maps to exit status 2."""


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _emit_findings(findings: Sequence[Finding]) -> int:
    for item in findings:
        print(item.render(), file=sys.stderr)
    return 1 if any(f.severity == ERROR for f in findings) else 0


def _write_payload(data: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _parse_pairs(pairs: Sequence[str], flag: str) -> dict[str, str]:
    result: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise _UsageError(f"{flag} expects KEY=VALUE, got {pair!r}")
        if key in result:
            raise _UsageError(f"{flag} given twice for {key!r}")
        result[key] = value
    return result


def _split_tags(text: str | None) -> list[str]:
    if not text:
        return []
    return [tag.strip() for tag in text.split(",") if tag.strip()]


def _repo_root(arg: str | None) -> str:
    root = arg or os.environ.get(REPO_ENV)
    if not root:
        raise _UsageError(f"no repository root: pass --repo or set {REPO_ENV}")
    return root


def _load_schedule_formula(schedule_path: str, formula_text: str):
    sched = schedule_mod.load_schedule(_read(schedule_path))
    return sched, parse_formula(formula_text, sched)


def _load_eg(path: str) -> eg_mod.EntityGraph:
    return exports.load_entity_graph_json(_read(path))


# ---------------------------------------------------------------------------
# Query text parsing (CLI syntax)


# One token of query text per match, in one of six groups, each of which
# is non-empty when it matches.  Every character but white space starts a
# token, so ``findall`` passes over just the white space between tokens.
# A "<" or '"' that opens no whole token matches alone as ``open``; so
# does a "<" after "^^" that is never closed, as the datatype is then "^^".
_QUERY_TOKEN = re.compile(
    r'(?P<word>[^\s<".]\S*)|(?P<name><[^>]*>)|(?P<dot>\.)'
    r'|(?P<literal>"[^"\\]*(?:\\.[^"\\]*)*")(?P<datatype>\^\^(?:<[^>]*>|[^<\s]\S*|))?'
    r'|(?P<open>[<"])',
    re.DOTALL,
)
_UNTERMINATED = {"<": "query: unterminated IRI", '"': "query: unterminated literal"}


def _name_term(name: str, eg: eg_mod.EntityGraph) -> Iri:
    """The unique graph IRI a short name stands for; full IRIs stand for themselves."""
    if "://" in name:
        return Iri(name)
    matches = eg.short_names.get(name, ())
    if not matches:
        raise _UsageError(f"query: name {name!r} matches no term in the graph")
    if len(matches) > 1:
        raise _UsageError(f"query: name {name!r} is ambiguous: {[m.value for m in matches]}")
    return matches[0]


def parse_query_text(text: str, eg: eg_mod.EntityGraph) -> query_mod.Query:
    """Parse ``?var <name> "literal" .`` pattern text against a graph.

    Malformed text (an unterminated IRI or literal, a bad escape) is
    reported, in text order, before any name, variable, datatype or
    pattern error: the first pass reads every token, the second builds."""
    tokens = []
    for word, name, dot, literal, datatype, opened in _QUERY_TOKEN.findall(text):
        if opened:
            raise _UsageError(_UNTERMINATED[opened])
        if literal:
            try:
                literal = exports.unescape(literal[1:-1])
            except FormatError as exc:
                raise _UsageError(f"query: {exc}") from None
        tokens.append((word, name, dot, literal, datatype[2:] if datatype else None))

    patterns: list = []
    current: list = []
    for word, name, dot, literal, datatype in tokens:
        if dot:
            if len(current) != 3:
                raise _UsageError(f"query: pattern has {len(current)} terms, expected 3")
            patterns.append(tuple(current))
            current = []
        elif name:
            current.append(_name_term(name[1:-1], eg))
        elif word:
            if not word.startswith("?"):
                raise _UsageError(f"query: unrecognized token {word!r}")
            current.append(query_mod.Variable(word))
        elif datatype is None:
            current.append(eg_mod.Literal(literal, "string"))
        elif datatype.startswith("<"):
            resolved = exports.XSD_NAMES.get(datatype[1:-1])
            if resolved is None:
                raise _UsageError(f"query: unsupported literal datatype {datatype}")
            current.append(eg_mod.Literal(literal, resolved))
        else:
            current.append(eg_mod.Literal(literal, datatype))
    if current:
        raise _UsageError("query: pattern not terminated with '.'")
    return query_mod.Query(tuple(patterns))


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_schedule_lint(args) -> int:
    sched = schedule_mod.load_schedule(_read(args.file))
    return _emit_findings(schedule_mod.lint_schedule(sched))


def _cmd_classify(args) -> int:
    sched, formula = _load_schedule_formula(args.schedule, args.formula)
    assignments = _parse_pairs(args.facet, "--facet")
    _, text = synthesize_class_number(sched, formula, assignments)
    _write_payload((text + "\n").encode(), args.out)
    return 0


def _cmd_chain_index(args) -> int:
    sched, formula = _load_schedule_formula(args.schedule, args.formula)
    number = parse_class_number(sched, formula, args.class_number)
    lines = "".join(
        f"{h.heading}\t{h.reference}\n" for h in chain_index(sched, number)
    )
    _write_payload(lines.encode(), args.out)
    return 0


def _cmd_record_build(args) -> int:
    code = catalogue_mod.load_catalogue_code(_read(args.code))
    sched, formula = _load_schedule_formula(args.schedule, args.formula)
    number = parse_class_number(sched, formula, args.class_number)
    headings = chain_index(sched, number)
    call_number = catalogue_mod.make_call_number(
        args.class_number, args.surname, args.year, args.accession
    )
    record = catalogue_mod.build_record(
        code, args.type, _parse_pairs(args.field, "--field"),
        headings, call_number, args.accession,
    )
    _write_payload((catalogue_mod.record_to_json(record) + "\n").encode(), args.out)
    return 0


def _cmd_record_lint(args) -> int:
    code = catalogue_mod.load_catalogue_code(_read(args.code))
    records = [catalogue_mod.load_record(_read(path)) for path in args.records]
    return _emit_findings(catalogue_mod.lint_records(code, records))


def _cmd_ontology_build(args) -> int:
    lexsem = load_lexsem(_read(args.lexsem))
    schema = ontology.load_dataset_schema(_read(args.schema))
    built, findings = ontology.build_lightweight_ontology(lexsem, args.language, schema)
    status = _emit_findings(findings)
    _write_payload(ontology.canonical_json(built), args.out)
    return status


def _cmd_etg_lint(args) -> int:
    graph = etg_mod.load_etg(_read(args.file))
    config = etg_mod.EtgLintConfig(stoplist=frozenset(_split_tags(args.stoplist)))
    return _emit_findings(etg_mod.lint_etg(graph, config))


def _cmd_repo_add(args) -> int:
    repo = etg_mod.open_repository(_repo_root(args.repo))
    graph = etg_mod.load_etg(_read(args.etg))
    updated = etg_mod.repo_add(repo, graph, _split_tags(args.tags), args.version)
    entry = updated.entries[-1]
    print(f"{entry.etg_id}\t{entry.version}\t{','.join(entry.tags)}\t{entry.lint_status}")
    return 0


def _cmd_repo_find(args) -> int:
    repo = etg_mod.open_repository(_repo_root(args.repo))
    for entry in etg_mod.repo_find(repo, _split_tags(args.tags)):
        print(f"{entry.etg_id}\t{entry.version}\t{','.join(entry.tags)}\t{entry.lint_status}")
    return 0


def _ground_from_args(args):
    built = ontology.load_ontology_json(_read(args.ontology))
    graph = etg_mod.load_etg(_read(args.etg))
    mapping = _parse_pairs(args.map, "--map")
    return etg_mod.ground(built, graph, mapping)


def _cmd_ground(args) -> int:
    import json

    schema_graph, findings = _ground_from_args(args)
    status = _emit_findings(findings)
    payload = {
        "grounding": dict(sorted(schema_graph.grounding.items())),
        "effective_properties": {
            node: {
                "data": sorted(props.data),
                "object": sorted(props.objects),
            }
            for node, props in sorted(schema_graph.effective_properties.items())
        },
    }
    _write_payload(
        (json.dumps(payload, ensure_ascii=True, indent=2) + "\n").encode(), args.out
    )
    return status


def _read_dataset_file(path: str) -> list[dict[str, str]]:
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return eg_mod.read_table(_read(path), "csv")
    if suffix == ".json":
        return eg_mod.read_table(_read(path), "json")
    raise _UsageError(f"dataset {path!r}: expected a .csv or .json file")


def _cmd_eg_build(args) -> int:
    schema_graph, ground_findings = _ground_from_args(args)
    spec = eg_mod.load_mapping_spec(_read(args.spec), schema_graph)
    tables = {
        dataset_id: _read_dataset_file(path)
        for dataset_id, path in _parse_pairs(args.data, "--data").items()
    }
    graph, findings = eg_mod.build_entity_graph(
        schema_graph, spec, tables, Iri(args.base), parse_timestamp(args.at)
    )
    status = _emit_findings([*ground_findings, *findings])
    _write_payload(exports.export_jsongraph(graph), args.out)
    return status


def _cmd_eg_query(args) -> int:
    graph = _load_eg(args.file)
    parsed = parse_query_text(args.query, graph)
    table = query_mod.run_query(graph, parsed)
    if not table.columns:
        _write_payload(b"true\n" if table.holds() else b"false\n", args.out)
        return 0
    lines = ["\t".join(table.columns)]
    for row in table.rows:
        lines.append("\t".join(exports.render_term(term) for term in row))
    _write_payload(("\n".join(lines) + "\n").encode(), args.out)
    return 0


def _cmd_eg_export(args) -> int:
    graph = _load_eg(args.file)
    renderers = {
        "nt": exports.export_ntriples,
        "json": exports.export_jsongraph,
        "fca": exports.export_fca,
    }
    _write_payload(renderers[args.format](graph), args.out)
    return 0


def _cmd_eg_snapshot(args) -> int:
    graph = _load_eg(args.file)
    result = eg_mod.snapshot(graph, args.out_dir, force=args.force)
    print(str(result.directory / "manifest.json"))
    return 0


# ---------------------------------------------------------------------------
# Parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facetforge",
        description="Faceted classification, chain indexing, and entity-graph tooling.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    p_schedule = top.add_parser("schedule", help="classification schedule operations")
    schedule_sub = p_schedule.add_subparsers(dest="subcommand", required=True)
    p = schedule_sub.add_parser("lint", help="lint a schedule file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_schedule_lint)

    p = top.add_parser("classify", help="synthesize a class number")
    p.add_argument("--schedule", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--facet", action="append", default=[], metavar="CODE=NOTATION")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_classify)

    p = top.add_parser("chain-index", help="derive subject headings")
    p.add_argument("--schedule", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("class_number")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_chain_index)

    p_record = top.add_parser("record", help="catalogue record operations")
    record_sub = p_record.add_subparsers(dest="subcommand", required=True)
    p = record_sub.add_parser("build", help="build a catalogue record")
    p.add_argument("--code", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--class-number", required=True)
    p.add_argument("--field", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--surname", required=True)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--accession", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_record_build)
    p = record_sub.add_parser("lint", help="lint record files against a code")
    p.add_argument("--code", required=True)
    p.add_argument("records", nargs="+")
    p.set_defaults(handler=_cmd_record_lint)

    p_ontology = top.add_parser("ontology", help="lightweight ontology operations")
    ontology_sub = p_ontology.add_subparsers(dest="subcommand", required=True)
    p = ontology_sub.add_parser("build", help="build an ontology from lexsem + schema")
    p.add_argument("--lexsem", required=True)
    p.add_argument("--language", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_ontology_build)

    p_etg = top.add_parser("etg", help="entity type graph operations")
    etg_sub = p_etg.add_subparsers(dest="subcommand", required=True)
    p = etg_sub.add_parser("lint", help="lint an ETG file")
    p.add_argument("file")
    p.add_argument("--stoplist", help="comma-separated reticence stoplist")
    p.set_defaults(handler=_cmd_etg_lint)

    p_repo = top.add_parser("repo", help="ETG repository operations")
    repo_sub = p_repo.add_subparsers(dest="subcommand", required=True)
    p = repo_sub.add_parser("add", help="admit an ETG (lint errors refuse)")
    p.add_argument("--etg", required=True)
    p.add_argument("--tags", help="comma-separated domain tags")
    p.add_argument("--version", default="1")
    p.add_argument("--repo", help=f"repository root (default ${REPO_ENV})")
    p.set_defaults(handler=_cmd_repo_add)
    p = repo_sub.add_parser("find", help="find catalogue entries by tag")
    p.add_argument("--tags", help="comma-separated query tags (empty = all)")
    p.add_argument("--repo", help=f"repository root (default ${REPO_ENV})")
    p.set_defaults(handler=_cmd_repo_find)

    p = top.add_parser("ground", help="ground an ontology in an ETG")
    p.add_argument("--ontology", required=True)
    p.add_argument("--etg", required=True)
    p.add_argument("--map", action="append", default=[], metavar="NODE=TYPE")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_ground)

    p_eg = top.add_parser("eg", help="entity graph operations")
    eg_sub = p_eg.add_subparsers(dest="subcommand", required=True)
    p = eg_sub.add_parser("build", help="build an entity graph from datasets")
    p.add_argument("--ontology", required=True)
    p.add_argument("--etg", required=True)
    p.add_argument("--map", action="append", default=[], metavar="NODE=TYPE")
    p.add_argument("--spec", required=True)
    p.add_argument("--data", action="append", default=[], metavar="DATASET=FILE")
    p.add_argument("--base", required=True)
    p.add_argument("--at", required=True, help="timestamp YYYY-MM-DDTHH:MM:SSZ")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_eg_build)
    p = eg_sub.add_parser("query", help="run a conjunctive pattern query")
    p.add_argument("file")
    p.add_argument("query")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_eg_query)
    p = eg_sub.add_parser("export", help="export the graph")
    p.add_argument("--format", required=True, choices=["nt", "json", "fca"])
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_eg_export)
    p = eg_sub.add_parser("snapshot", help="write a temporally-boxed snapshot")
    p.add_argument("file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_cmd_eg_snapshot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the exit status instead of raising SystemExit."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        return args.handler(args)
    except (etg_mod.LintGateError,) as exc:
        for item in exc.findings:
            print(item.render(), file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except eg_mod.DanglingLinkError as exc:
        print(exc.finding.render(), file=sys.stderr)
        return 1
    except (FormatError, _UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
