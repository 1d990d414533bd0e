"""The three benchmark workloads.

Each workload turns a seed and a size table into inputs (``generate``, not
timed), pays its set-up through program calls (``setup``, timed as
``setup_s``), then runs ops in batches (``batch`` builds the inputs, ``op`` is
the timed call sequence) and checks every op's output with ``check``, outside
the timed interval.  ``check`` raises :class:`CheckFailed` on a wrong output
and otherwise returns the bytes that go into the run's output digest and the
op's counts for the per-layer report.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

from facetforge.catalogue import (
    build_record,
    lint_records,
    load_catalogue_code,
    load_record,
    make_call_number,
    record_to_json,
)
from facetforge.cli import parse_query_text
from facetforge.core import Iri
from facetforge.eg import Literal, build_entity_graph, load_mapping_spec, snapshot
from facetforge.etg import ground, load_etg
from facetforge.exports import export_fca, load_entity_graph_json, parse_ntriples, render_term
from facetforge.facet import chain_index, parse_class_number, parse_formula, synthesize_class_number
from facetforge.lexsem import load_lexsem
from facetforge.ontology import build_lightweight_ontology, load_dataset_schema
from facetforge.query import run_query
from facetforge.schedule import lint_schedule, load_schedule

import gen
from spans import Api, Tracer

# The program functions that set-up, ops and batch closes call (checks call
# the program directly, never through the Api, so they are never traced).
PROGRAM_FUNCTIONS = (
    load_schedule, lint_schedule, parse_formula, load_catalogue_code,
    synthesize_class_number, parse_class_number, chain_index, make_call_number,
    build_record, record_to_json, lint_records,
    load_lexsem, load_dataset_schema, build_lightweight_ontology, load_etg, ground,
    load_mapping_spec, build_entity_graph, snapshot, export_fca,
    load_entity_graph_json, parse_query_text, run_query, render_term,
)
BASE = Iri(gen.BASE)
AT = datetime(2024, 1, 1, tzinfo=timezone.utc)
XSD = "http://www.w3.org/2001/XMLSchema#"


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def make_api(tracer: Tracer | None = None) -> Api:
    return Api(PROGRAM_FUNCTIONS, tracer, extra=(_render_rows,))


def _render_rows(api: Api):
    def render_rows(table) -> str:
        """What ``eg query`` prints for a binding table."""
        if not table.columns:
            return "true\n" if table.rows else "false\n"
        lines = ["\t".join(table.columns)]
        for row in table.rows:
            lines.append("\t".join(api.render_term(term) for term in row))
        return "\n".join(lines) + "\n"

    return render_rows


class Workload:
    name = ""
    # Attributes that hold what :meth:`setup` built, dropped before each
    # further set-up pass so that two copies never coexist.
    program_state: tuple[str, ...] = ()

    def __init__(self, seed: int, sizes: dict, scratch: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch

    def generate(self) -> None:
        """Build the set-up documents (the benchmark's own work, untimed)."""

    def setup(self, api: Api) -> dict:
        """Program calls a user pays before the first op; returns what
        :meth:`check_setup` needs."""
        raise NotImplementedError

    def release(self) -> None:
        for attribute in self.program_state:
            setattr(self, attribute, None)

    def batch(self, index: int) -> list:
        raise NotImplementedError

    def op(self, api: Api, item):
        raise NotImplementedError

    def check(self, item, output) -> tuple[bytes, dict]:
        raise NotImplementedError

    def check_setup(self, state: dict) -> dict:
        """Check what :meth:`setup` returned, outside its timing; returns counts."""
        return {}

    def close(self, api: Api) -> dict | None:
        """Work that ends a batch: op time, but part of no single op."""
        return None

    def check_close(self, output: dict) -> dict:
        """Check what :meth:`close` returned; returns counts."""
        return {}


# ---------------------------------------------------------------------------


class Catalogue(Workload):
    name = "catalogue"
    program_state = ("schedule", "formula", "code")

    def generate(self) -> None:
        s = self.sizes
        self.schedule_input = gen.schedule_document(
            gen.rng_for(self.seed, "schedule"), s["facets"], s["fanout"], s["depth"]
        )
        self.surnames = [
            w.capitalize()
            for w in gen.unique_words(gen.rng_for(self.seed, "surnames"), s["surnames"])
        ]

    def setup(self, api: Api) -> dict:
        self.schedule = api.load_schedule(self.schedule_input.document)
        findings = api.lint_schedule(self.schedule)
        self.formula = api.parse_formula(gen.FORMULA, self.schedule)
        self.code = api.load_catalogue_code(gen.CATALOGUE_CODE)
        return {"findings": findings}

    def check_setup(self, state: dict) -> dict:
        expect(state["findings"] == [], f"generated schedule is clean, lint says {state['findings'][:3]}")
        concepts = sum(len(c.concepts) for c in self.schedule.categories)
        expect(concepts == self.schedule_input.concepts, "schedule concept count")
        return {"schedule.concepts": concepts}

    def batch(self, index: int) -> list:
        """One cataloguing session; its call-number registry starts empty."""
        self.issued: list = []
        self.records: list = []
        s = self.sizes
        return gen.catalogue_batch(
            gen.rng_for(self.seed, "batch", index), self.schedule_input,
            s["broad_subjects"], s["specific_subjects"], s["uses_per_subject"], self.surnames,
        )

    def op(self, api: Api, item):
        number, text = api.synthesize_class_number(
            self.schedule, self.formula, dict(item.assignments)
        )
        parsed = api.parse_class_number(self.schedule, self.formula, text)
        headings = api.chain_index(self.schedule, parsed)
        call_number = api.make_call_number(
            text, item.surname, item.year, item.accession, self.issued
        )
        self.issued.append(call_number)
        record = api.build_record(
            self.code, "Book", dict(item.imprint), headings, call_number, item.accession
        )
        document = api.record_to_json(record)
        self.records.append(record)
        return number, text, parsed, headings, record, document

    def check(self, item, output) -> tuple[bytes, dict]:
        number, text, parsed, headings, record, document = output
        expect(text == item.text, f"synthesized {text!r}, expected {item.text!r}")
        expect(parsed == number, f"parse of {text!r} does not round-trip")
        expect(len(number.facets) == len(item.assignments), "facet count")
        expect(headings and headings[-1].reference == "L", "chain ends at the base")
        expect(record.call_number.class_part == text, "call number class part")
        expect(load_record(document) == record, "record JSON does not round-trip")
        return document.encode(), {"facet.headings": len(headings)}

    def close(self, api: Api) -> dict:
        findings = api.lint_records(self.code, self.records)
        return {"findings": findings, "records": list(self.records)}

    def check_close(self, output: dict) -> dict:
        # CC1 is the only rule the generated batch can trip: optional fields
        # (place, pages) are present on some records and absent on others.
        records = output["records"]
        union = set().union(*(r.field_keys() for r in records)) if records else set()
        expected = sum(len(union - r.field_keys()) for r in records)
        codes = [f.code for f in output["findings"]]
        expect(codes == ["CC1"] * expected, f"lint_records gave {len(codes)} findings,"
               f" expected {expected} CC1")
        numbers = [r.call_number for r in records]
        expect(len(set(numbers)) == len(numbers), "call numbers collide within a batch")
        return {"catalogue.findings": len(codes)}


# ---------------------------------------------------------------------------


class GraphBuild(Workload):
    name = "graph-build"
    program_state = ("schema_graph", "spec")

    def generate(self) -> None:
        s = self.sizes
        self.lexicon = gen.lexicon_documents(
            gen.rng_for(self.seed, "lexicon"), s["synsets"], s["classes"], s["unresolved"]
        )
        self.mapping = gen.mapping_document("stub", "skip")
        self.out_dir = self.scratch / f"snapshot-{self.seed}"

    def setup(self, api: Api) -> dict:
        lexsem = api.load_lexsem(self.lexicon.lexsem)
        schema = api.load_dataset_schema(self.lexicon.schema)
        ontology, findings = api.build_lightweight_ontology(lexsem, "en", schema)
        etg = api.load_etg(gen.ETG_DOCUMENT)
        self.schema_graph, _ = api.ground(ontology, etg, gen.GROUNDING_MAP)
        self.spec = api.load_mapping_spec(self.mapping, self.schema_graph)
        return {"lexsem": lexsem, "ontology": ontology, "findings": findings}

    def check_setup(self, state: dict) -> dict:
        synsets = len(state["lexsem"].language("en"))
        expect(synsets == self.lexicon.synsets, "lexicon synset count")
        codes = [f.code for f in state["findings"]]
        expect(codes == ["LO1"] * self.lexicon.unresolved, f"ontology findings {codes}")
        grounded = self.schema_graph.grounding
        expect(grounded["en-book-1"] == "Publication" and grounded["en-person-1"] == "Person",
               "grounding of the toy synsets")
        return {"lexsem.synsets": synsets, "ontology.nodes": len(state["ontology"].nodes)}

    def batch(self, index: int) -> list:
        """A deck of small and large batches, shuffled."""
        rng = gen.rng_for(self.seed, "deck", index)
        deck = []
        for kind, count in self.sizes["deck"].items():
            s = self.sizes[kind]
            for _ in range(count):
                deck.append(gen.graph_batch(
                    rng, s["books"], s["people"], s["orgs"], s["places"], faults=True
                ))
        rng.shuffle(deck)
        return deck

    def op(self, api: Api, item):
        graph, findings = api.build_entity_graph(
            self.schema_graph, self.spec, item.tables, BASE, AT
        )
        snap = api.snapshot(graph, self.out_dir, force=True)
        fca = api.export_fca(graph)
        return graph, findings, snap, fca

    def check(self, item, output) -> tuple[bytes, dict]:
        graph, findings, snap, fca = output
        files = {}
        for entry in snap.manifest["files"]:
            data = (snap.directory / entry["name"]).read_bytes()
            expect(hashlib.sha256(data).hexdigest() == entry["sha256"],
                   f"manifest digest of {entry['name']}")
            files[entry["name"].rsplit(".", 1)[1]] = data
        triples = graph.triples
        parsed = parse_ntriples(files["nt"])
        expect(len(parsed) == len(triples) and set(parsed) == set(triples),
               "N-Triples export does not parse back to the built triples")
        del parsed
        expect(load_entity_graph_json(files["json"]).triples == triples,
               "JSON graph export does not load back to the built triples")
        expect(fca.count(b"\r\n") == len(graph.entities) + 1, "FCA row count")
        expect(len(graph.entities) == item.rows + item.stubs, "entity count")
        codes = [f.code for f in findings]
        expected = ["IG1"] * item.bad_cells + ["LK2"] * item.dangling_hq + ["LK3"] * item.stubs
        expect(codes == expected, f"build findings {codes.count('IG1')} IG1,"
               f" {codes.count('LK2')} LK2, {codes.count('LK3')} LK3; expected {len(expected)}")
        digest = b"".join(hashlib.sha256(data).digest() for data in (files["nt"], files["json"], fca))
        counts = {
            "eg.rows_in": item.rows,
            "eg.triples_out": len(triples),
            "eg.findings_IG1": item.bad_cells,
            "eg.findings_LK2": item.dangling_hq,
            "eg.findings_LK3": item.stubs,
            "exports.bytes_out": len(files["nt"]) + len(files["json"]) + len(fca),
        }
        return digest, counts


# ---------------------------------------------------------------------------

SHAPES = ("lookup", "star", "path", "typescan", "ask", "miss")


class QuerySpec:
    """One generated query.  A pattern term is a ``?variable`` or the short
    name of a graph IRI, which the CLI syntax writes as ``<name>``."""

    def __init__(self, shape: str, patterns: list[tuple[str, str, str]]) -> None:
        self.shape = shape
        self.patterns = patterns
        self.text = " ".join(
            " ".join(t if t.startswith("?") else f"<{t}>" for t in pattern) + " ."
            for pattern in patterns
        )


class GraphQuery(Workload):
    name = "graph-query"
    program_state = ("graph",)

    def generate(self) -> None:
        s = self.sizes
        self.graph_input = gen.query_graph_document(
            gen.rng_for(self.seed, "graph"), s["books"], s["people"], s["orgs"], s["places"]
        )
        self._index(json.loads(self.graph_input.document))

    def setup(self, api: Api) -> dict:
        self.graph = api.load_entity_graph_json(self.graph_input.document)
        return {}

    def check_setup(self, state: dict) -> dict:
        triples = self.graph.triples
        expect(len(triples) == self.triple_count and len(set(triples)) == len(triples)
               and all((t.subject, t.object) in self.by_predicate.get(t.predicate, ())
                       for t in triples),
               "loaded graph differs from the generated document")
        return {"exports.triples_in": len(triples)}

    # -- independent evaluator ------------------------------------------------

    def _index(self, document: dict) -> None:
        """Triples of the generated document, built here, as (subject,
        object) pairs by predicate; no second copy of the graph is kept."""
        base = gen.BASE
        triples = set()
        for entity in document["entities"]:
            subject = Iri(entity["iri"])
            triples.add((subject, Iri(f"{base}/prop/type"), Iri(f"{base}/type/{entity['type']}")))
            for value in entity["values"]:
                triples.add((subject, Iri(f"{base}/prop/{value['property']}"),
                             Literal(value["value"], value["datatype"])))
        for link in document["links"]:
            triples.add((Iri(link["subject"]), Iri(f"{base}/prop/{link['property']}"),
                         Iri(link["object"])))
        self.triple_count = len(triples)
        self.by_predicate: dict[Iri, set[tuple]] = {}
        self.terms: dict[str, Iri] = {}  # short name -> IRI
        for s, p, o in triples:
            self.by_predicate.setdefault(p, set()).add((s, o))
            for term in (s, p, o):
                if isinstance(term, Iri):
                    self.terms[term.value.rsplit("/", 1)[1]] = term

    def evaluate(self, query: QuerySpec) -> tuple[tuple[str, ...], list[tuple]]:
        """Hash-join evaluation: predicates are always bound in these shapes,
        so each pattern joins the rows so far with that predicate's pairs."""
        columns: list[str] = []
        rows: list[dict] = [{}]
        for pattern in query.patterns:
            subject, predicate, obj = (t if t.startswith("?") else self.terms[t] for t in pattern)
            bound = [v for v in (subject, obj) if isinstance(v, str) and v in columns]
            columns += [v for v in dict.fromkeys((subject, obj)) if isinstance(v, str) and v not in columns]
            table: dict[tuple, list[dict]] = {}
            for pair_s, pair_o in self.by_predicate.get(predicate, []):
                binding = {}
                for term, value in ((subject, pair_s), (obj, pair_o)):
                    if not isinstance(term, str):
                        if term != value:
                            break
                    elif binding.setdefault(term, value) != value:
                        break
                else:
                    table.setdefault(tuple(binding[v] for v in bound), []).append(binding)
            rows = [
                {**row, **match}
                for row in rows
                for match in table.get(tuple(row[v] for v in bound), [])
            ]
        unique = {tuple(row[c] for c in columns) for row in rows}
        return tuple(columns), sorted(unique, key=lambda r: [_render(t) for t in r])

    # -- ops ------------------------------------------------------------------

    def batch(self, index: int) -> list:
        """One deck: each shape appears its weight's number of times."""
        rng = gen.rng_for(self.seed, "deck", index)
        ids = self.graph_input.ids
        links = self.graph_input.links
        deck = []
        for shape in SHAPES:
            for _ in range(self.sizes["deck"][shape]):
                deck.append(self._query(rng, shape, ids, links))
        rng.shuffle(deck)
        return deck

    @staticmethod
    def _query(rng, shape: str, ids, links) -> QuerySpec:
        if shape == "lookup":
            _, person = rng.choice(links["author"])
            return QuerySpec(shape, [("?b", "author", person)])
        if shape == "star":
            _, person = rng.choice(links["author"])
            return QuerySpec(shape, [("?b", "author", person), ("?b", "title", "?t")])
        if shape == "path":
            _, place = rng.choice(links["headquarteredIn"])
            return QuerySpec(shape, [("?o", "headquarteredIn", place), ("?b", "publisher", "?o"),
                                     ("?b", "author", "?a")])
        if shape == "typescan":
            prop = rng.choice(["name", "headquarteredIn", "foundedBy"])
            return QuerySpec(shape, [("?o", "type", "Organization"), ("?o", prop, "?x")])
        if shape == "ask":
            if rng.random() < 0.5:
                book, person = rng.choice(links["author"])
            else:
                book, person = rng.choice(ids["Publication"]), rng.choice(ids["Person"])
            return QuerySpec(shape, [(book, "author", person)])
        if shape == "miss":  # known names, but no org wrote a book
            return QuerySpec(shape, [("?b", "author", rng.choice(ids["Organization"]))])
        raise ValueError(shape)

    def op(self, api: Api, item: QuerySpec):
        parsed = api.parse_query_text(item.text, self.graph)
        table = api.run_query(self.graph, parsed)
        return table, api.render_rows(table)

    def check(self, item: QuerySpec, output) -> tuple[bytes, dict]:
        table, text = output
        columns, rows = self.evaluate(item)
        expect(table.columns == columns, f"{item.shape}: columns {table.columns}")
        expect(list(table.rows) == rows, f"{item.shape}: {len(table.rows)} rows,"
               f" hash join gives {len(rows)}")
        names = sum(1 for p in item.patterns for t in p if not t.startswith("?"))
        return text.encode(), {"query.rows_out": len(rows), "cli.names_resolved": names}


_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})


def _render(term) -> str:
    """The canonical N-Triples form that orders query rows."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    return f'"{term.text.translate(_ESCAPES)}"^^<{XSD}{term.datatype}>'


WORKLOADS = {w.name: w for w in (Catalogue, GraphBuild, GraphQuery)}
