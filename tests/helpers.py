"""Randomized generators and independent oracles shared by the tests."""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
import re
from collections.abc import Sequence
from datetime import date, datetime, timezone
from operator import attrgetter

from facetforge.core import (
    Finding,
    FormatError,
    Iri,
    Label,
    check_identifier,
    finding,
    format_timestamp,
    mint_iri,
    parent_cycles,
    parse_json,
    parse_timestamp,
    sort_findings,
    stopword_findings,
    timestamp_identifier,
)
from facetforge.eg import (
    DanglingLinkError,
    DataMap,
    DatasetMapping,
    EntityGraph,
    LinkMap,
    Literal,
    MappingSpec,
    Triple,
    TypedRow,
    derive_base,
    property_predicate,
    type_iri,
    type_predicate,
)
from facetforge import exports
from facetforge.cli import _name_term, _UsageError
from facetforge.etg import DataProperty, EntityType, EntityTypeGraph, ObjectProperty
from facetforge.facet import ClassNumber, FacetFormula, FormulaSlot
from facetforge.exports import XSD, render_term
from facetforge.lexsem import LexicalSemanticResource, Synset
from facetforge.ontology import LightweightOntology, OntologyNode
from facetforge.query import BindingTable, Pattern, Query, Term, Variable
from facetforge.schedule import (
    _BASE,
    _CATEGORY,
    _CONCEPT,
    _RESERVED,
    _SCHEDULE,
    INDICATORS,
    ClassificationSchedule,
    Concept,
    FacetCategory,
    LintConfig,
    resolve_notation,
)

BASE = Iri("https://ex.org/du")
AT = parse_timestamp("2024-01-01T00:00:00Z")
MED_FORMULA = "[B],[P]:[E].[S]'[T?]"
DATASET_NAMES = ("books", "people", "orgs", "places")

_SEGMENT_ALPHABET = "0123456789ABCDEFGHJKMNPRSTUVWXYZ"
_INDICATORS = [",", ";", ":", ".", "'"]


# ---------------------------------------------------------------------------
# Random schedules, formulas, and assignments


def _segments(rng: random.Random, count: int, length: int) -> list[str]:
    """Distinct equal-length segments; equal length keeps siblings prefix-free."""
    pool = set()
    while len(pool) < count:
        pool.add("".join(rng.choice(_SEGMENT_ALPHABET) for _ in range(length)))
    return sorted(pool)


def random_schedule(rng: random.Random) -> ClassificationSchedule:
    category_count = rng.randint(1, 5)
    codes = rng.sample("ABCDEFGHJKLMPQRSTUVWXYZ", category_count)
    indicators = rng.sample(_INDICATORS, category_count)
    succession = tuple(f"division-{i}" for i in range(category_count))

    uid = itertools.count()
    categories = []
    for index in range(category_count):
        characteristic = succession[index]
        concepts: list[Concept] = []

        def add_level(parents: list[Concept | None], depth: int) -> list[Concept]:
            created: list[Concept] = []
            for parent in parents:
                width = rng.randint(1, 3) if parent is None else rng.randint(0, 2)
                if width == 0:
                    continue
                for ordinal, segment in enumerate(_segments(rng, width, rng.randint(1, 2))):
                    serial = next(uid)
                    concept = Concept(
                        id=f"c{serial}",
                        notation=segment,
                        label=Label(f"Concept {serial}"),
                        characteristic_value=(characteristic, f"value-{serial}"),
                        parent=None if parent is None else parent.id,
                        sought=rng.random() < 0.8,
                        ordinal=ordinal,
                    )
                    concepts.append(concept)
                    created.append(concept)
            return created

        level = add_level([None], 0)
        for depth in (1, 2):
            if not level:
                break
            level = add_level(level, depth)

        categories.append(
            FacetCategory(codes[index], indicators[index], characteristic, tuple(concepts))
        )

    return ClassificationSchedule(
        id="RND",
        base=Concept(
            id="base",
            notation=rng.choice(["A", "B2", "L", "X"]),
            label=Label("Base subject"),
            sought=rng.random() < 0.9,
        ),
        succession=succession,
        categories=tuple(categories),
    )


def random_formula(rng: random.Random, schedule: ClassificationSchedule) -> FacetFormula:
    codes = [c.code for c in schedule.categories]
    chosen = rng.sample(codes, rng.randint(1, len(codes)))
    return FacetFormula(
        tuple(FormulaSlot(code, required=rng.random() < 0.7) for code in chosen)
    )


def random_assignments(
    rng: random.Random, schedule: ClassificationSchedule, formula: FacetFormula
) -> dict[str, str]:
    from facetforge.schedule import full_notation

    assignments: dict[str, str] = {}
    for slot in formula.slots:
        if not slot.required and rng.random() < 0.4:
            continue
        category = schedule.category(slot.code)
        concept = rng.choice(category.concepts)
        assignments[slot.code] = full_notation(category, concept)
    # Shuffled insertion order exercises slot-order determinism.
    items = list(assignments.items())
    rng.shuffle(items)
    return dict(items)


# ---------------------------------------------------------------------------
# Random entity graphs and queries


def random_entity_graph(rng: random.Random, max_triples: int = 50) -> EntityGraph:
    iri_count = rng.randint(3, 8)
    iris = [Iri(f"https://ex.org/t/r{i}") for i in range(iri_count)]
    literals = [Literal(str(n), "integer") for n in range(rng.randint(0, 3))]
    objects = iris + literals

    wanted = rng.randint(0, max_triples)
    triples = set()
    for _ in range(wanted * 2):
        if len(triples) >= wanted:
            break
        triples.add(
            Triple(rng.choice(iris), rng.choice(iris), rng.choice(objects))
        )
    ordered = tuple(sorted(triples, key=Triple.sort_key))
    return EntityGraph(
        iri=Iri("https://ex.org/t/eg/fixed"),
        timestamp=datetime(2024, 1, 1, tzinfo=timezone.utc),
        sources=(),
        triples=ordered,
    )


def random_wide_graph(rng: random.Random, size: int) -> EntityGraph:
    """About *size* distinct triples over ~size/8 nodes and six predicates.

    The predicates are nodes too, so a predicate can also bind a subject or
    object variable, and self-loops occur for repeated-variable patterns.
    """
    nodes = [Iri(f"https://ex.org/w/n{i}") for i in range(max(8, size // 8))]
    predicates = rng.sample(nodes, 6)
    objects = nodes + [Literal(str(n), "integer") for n in range(5)]
    triples = set()
    while len(triples) < size:
        triples.add(Triple(rng.choice(nodes), rng.choice(predicates), rng.choice(objects)))
    ordered = tuple(sorted(triples, key=Triple.sort_key))
    return EntityGraph(
        iri=Iri("https://ex.org/w/eg/fixed"),
        timestamp=datetime(2024, 1, 1, tzinfo=timezone.utc),
        sources=(),
        triples=ordered,
    )


def random_export_graph(rng: random.Random, loadable: bool = False) -> EntityGraph:
    """A built-shaped graph whose literals need every N-Triples escape.

    Entities carry literal values, IRI-typed values and links, some to IRIs
    outside the graph.  Unless *loadable*, some subjects have values but no
    type, or two types, and some predicates are not ``<base>/prop/<name>``
    with an identifier name, which the exporters render but the loaders
    refuse or cannot give back.
    """
    base = "https://ex.org/du"
    alphabet = ["a", "Z", "0", " ", "\\", '"', "\n", "\r", "\t", "é", "ß", "→", "😀", "/", "<"]
    types = ["Person", "Place", "Publication"]
    properties = ["name", "title", "a-b", "a.b", *([] if loadable else ["héllo", "x~y"])]

    def text() -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))

    subjects = sorted(
        {
            Iri(f"{base}/{rng.choice(types)}/e{rng.randint(0, 30)}{rng.choice(['', 'é', '.x'])}")
            for _ in range(rng.randint(0, 12))
        },
        key=str,
    )
    predicate_type = Iri(f"{base}/prop/type")
    triples: set[Triple] = set()
    for subject in subjects:
        for _ in range(1 if loadable else rng.choice([0, 1, 1, 1, 2])):
            triples.add(Triple(subject, predicate_type, Iri(f"{base}/type/{rng.choice(types)}")))
        for _ in range(rng.randint(0, 4)):
            namespace = f"{base}/prop" if loadable else rng.choice([f"{base}/prop", "https://ex.org/a"])
            predicate = Iri(f"{namespace}/{rng.choice(properties)}")
            roll = rng.random()
            if roll < 0.6:
                datatype = rng.choice(["string", "string", "integer", "date"])
                triples.add(Triple(subject, predicate, Literal(text(), datatype)))
            elif roll < 0.8:
                triples.add(Triple(subject, predicate, rng.choice(subjects)))
            else:
                home = Iri(f"https://ex.org/home/{rng.randint(0, 5)}{rng.choice(['', 'é'])}")
                triples.add(Triple(subject, predicate, home))
    return EntityGraph(
        iri=Iri(f"{base}/eg/2024-01-01T00-00-00Z"),
        timestamp=AT,
        sources=tuple(rng.sample(DATASET_NAMES, rng.randint(0, 4))),
        triples=tuple(sorted(triples, key=Triple.sort_key)),
    )


# ---------------------------------------------------------------------------
# Exporter oracles: the exporters as first written, one Python step per
# character, term and value, and ``json.dumps`` over a dict per value.

_ORACLE_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def oracle_escape(text: str) -> str:
    return "".join(_ORACLE_ESCAPES.get(ch, ch) for ch in text)


def oracle_render_term(term: Iri | Literal) -> str:
    if isinstance(term, Iri):
        return f"<{term.value}>"
    return f'"{oracle_escape(term.text)}"^^<{XSD[term.datatype]}>'


def oracle_render_ntriples(triples) -> bytes:
    lines = sorted(
        f"{oracle_render_term(t.subject)} {oracle_render_term(t.predicate)}"
        f" {oracle_render_term(t.object)} .".encode()
        for t in triples
    )
    if not lines:
        return b""
    return b"\n".join(lines) + b"\n"


def oracle_export_jsongraph(eg: EntityGraph) -> bytes:
    predicate_type = type_predicate(derive_base(eg.iri)).value
    entities: dict[str, dict] = {}
    values: dict[str, list[dict]] = {}
    links = []
    for t in eg.triples:
        subject = t.subject.value
        if t.predicate.value == predicate_type:
            entities[subject] = {
                "iri": subject,
                "type": t.object.value.rsplit("/", 1)[1],
                "values": values.setdefault(subject, []),
            }
            continue
        prop = t.predicate.value.rsplit("/", 1)[1]
        if isinstance(t.object, Literal):
            values.setdefault(subject, []).append(
                {"property": prop, "datatype": t.object.datatype, "value": t.object.text}
            )
        else:
            links.append({"subject": subject, "property": prop, "object": t.object.value})
    for entity in entities.values():
        entity["values"].sort(key=lambda v: (v["property"], v["datatype"], v["value"]))
    links.sort(key=lambda l: (l["subject"], l["property"], l["object"]))
    payload = {
        "metadata": {
            "iri": eg.iri.value,
            "timestamp": format_timestamp(eg.timestamp),
            "sources": list(eg.sources),
            "counts": {"entities": len(entities), "triples": len(eg.triples)},
        },
        "entities": [entities[key] for key in sorted(entities)],
        "links": links,
    }
    return json.dumps(payload, ensure_ascii=True, separators=(",", ":")).encode() + b"\n"


def oracle_export_fca(eg: EntityGraph) -> bytes:
    predicate_type = type_predicate(derive_base(eg.iri)).value
    types: dict[str, str] = {}
    incidence: dict[str, set[str]] = {}
    for triple in eg.triples:
        subject = triple.subject.value
        if triple.predicate.value == predicate_type:
            types[subject] = "type:" + triple.object.value.rsplit("/", 1)[1]
        else:
            incidence.setdefault(subject, set()).add(triple.predicate.value.rsplit("/", 1)[1])
    columns = sorted(set().union(*incidence.values(), types.values()))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(["entity", *columns])
    for iri_value in sorted(types):
        attributes = incidence.get(iri_value, set()) | {types[iri_value]}
        writer.writerow([iri_value, *("1" if column in attributes else "0" for column in columns)])
    return buffer.getvalue().encode()


def random_anchored_query(rng: random.Random, eg: EntityGraph, max_patterns: int = 3) -> Query:
    """Patterns read off a random walk over the graph's triples.

    Each position of a walked triple becomes a variable, the triple's own
    term, or now and then a term the graph does not hold; one query in eight
    has no variables.  A term keeps the
    variable it first got, so consecutive patterns join where the walk
    passed through a shared term; a walk step to a random triple makes a
    pattern that may share no variable.
    """
    variables = [Variable(name) for name in ("?a", "?b", "?c", "?d")]
    novel = Iri("https://ex.org/w/unknown")
    touching: dict = {}
    for triple in eg.triples:
        for term in (triple.subject, triple.predicate, triple.object):
            touching.setdefault(term, []).append(triple)

    named: dict = {}
    share = 0.0 if rng.random() < 0.125 else 0.5  # of positions made variables
    anchor = rng.choice(eg.triples)
    patterns = []
    for _ in range(rng.randint(1, max_patterns)):
        terms = (anchor.subject, anchor.predicate, anchor.object)
        pattern = []
        for actual in terms:
            roll = rng.random()
            if roll < share:
                pattern.append(named.setdefault(actual, rng.choice(variables)))
            else:
                pattern.append(novel if roll < share + 0.03 else actual)
        patterns.append(tuple(pattern))
        if rng.random() < 0.75:
            anchor = rng.choice(touching[rng.choice(terms)])
        else:
            anchor = rng.choice(eg.triples)
    return Query(tuple(patterns))


def random_query(rng: random.Random, eg: EntityGraph, max_patterns: int = 3) -> Query:
    variables = [Variable("?a"), Variable("?b"), Variable("?c")]
    terms = eg.terms() or [Iri("https://ex.org/t/none")]
    novel = Iri("https://ex.org/t/unknown")

    def term():
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(variables[: rng.randint(1, 3)])
        if roll < 0.9:
            return rng.choice(terms)
        return novel

    patterns = tuple(
        (term(), term(), term()) for _ in range(rng.randint(1, max_patterns))
    )
    return Query(patterns)


def brute_force_query(eg: EntityGraph, query: Query) -> tuple[tuple[str, ...], set]:
    """Enumerate every variable assignment over the graph's terms and filter.

    Independent of the engine's join order: the only shared vocabulary is the
    term and triple types.
    """
    columns = tuple(query.variables())
    terms = eg.terms()
    triple_set = {(t.subject, t.predicate, t.object) for t in eg.triples}
    rows = set()
    for assignment in itertools.product(terms, repeat=len(columns)):
        env = dict(zip(columns, assignment))

        def instantiate(term):
            if isinstance(term, Variable):
                return env[term.name]
            return term

        if all(
            (instantiate(s), instantiate(p), instantiate(o)) in triple_set
            for s, p, o in query.patterns
        ):
            rows.add(assignment)
    return columns, rows



def _match(
    pattern: Pattern, triple_terms: tuple[Term, Term, Term], binding: dict[str, Term]
) -> dict[str, Term] | None:
    extended = dict(binding)
    for term, actual in zip(pattern, triple_terms):
        if isinstance(term, Variable):
            bound = extended.get(term.name)
            if bound is None:
                extended[term.name] = actual
            elif bound != actual:
                return None
        elif term != actual:
            return None
    return extended


def nested_loop_query(eg: EntityGraph, query: Query) -> BindingTable:
    """The engine's first evaluator, kept as an oracle: for each pattern in
    query order, every partial binding is matched against every triple."""
    bindings: list[dict[str, Term]] = [{}]
    triples = [(t.subject, t.predicate, t.object) for t in eg.triples]
    for pattern in query.patterns:
        next_bindings: list[dict[str, Term]] = []
        for binding in bindings:
            for triple_terms in triples:
                extended = _match(pattern, triple_terms, binding)
                if extended is not None:
                    next_bindings.append(extended)
        bindings = next_bindings
        if not bindings:
            break

    columns = tuple(query.variables())
    unique_rows = {tuple(b[name] for name in columns) for b in bindings}
    ordered = sorted(unique_rows, key=lambda row: [render_term(t) for t in row])
    return BindingTable(columns, tuple(ordered))


# ---------------------------------------------------------------------------
# Hierarchies with repeated ids and shared lemmas, and the linear scans the
# indexed lookups replaced, kept as oracles


def random_tangled_schedule(rng: random.Random) -> ClassificationSchedule:
    """A directly built schedule whose categories may repeat concept ids.

    Parents are drawn from ids stored earlier in the same category.  A
    parent reference reaches the last concept stored under its id, so a
    repeated id can also close a loop, which every chain walk must report.
    """
    categories = []
    for index, code in enumerate(rng.sample("ABCDEFGH", rng.randint(1, 4))):
        characteristic = f"division-{index}"
        concepts: list[Concept] = []
        for serial in range(rng.randint(0, 40)):
            earlier = [c.id for c in concepts]
            if earlier and rng.random() < 0.15:
                concept_id = rng.choice(earlier)
            else:
                concept_id = f"{code.lower()}{serial}"
            parent = rng.choice(earlier) if earlier and rng.random() < 0.7 else None
            concepts.append(
                Concept(
                    id=concept_id,
                    notation=rng.choice(["1", "2", "3", "12", "A", "B"]),
                    label=Label(f"Concept {serial}"),
                    characteristic_value=(characteristic, f"value-{serial % 7}"),
                    parent=parent,
                    ordinal=rng.randint(0, 3),
                )
            )
        categories.append(
            FacetCategory(code, _INDICATORS[index], characteristic, tuple(concepts))
        )
    return ClassificationSchedule(
        id="TANGLED",
        base=Concept(id="base", notation="L", label=Label("Base")),
        succession=tuple(f"division-{i}" for i in range(len(categories))),
        categories=tuple(categories),
    )


def scan_roots(category: FacetCategory) -> list[Concept]:
    return [c for c in category.concepts if c.parent is None]


def scan_children_of(category: FacetCategory, concept_id: str) -> list[Concept]:
    return [c for c in category.concepts if c.parent == concept_id]


def scan_full_notation(category: FacetCategory, concept: Concept) -> str:
    by_id = {c.id: c for c in category.concepts}
    path = [concept]
    seen = {concept.id}
    while path[0].parent is not None:
        parent = by_id.get(path[0].parent)
        if parent is None or parent.id in seen:
            raise ValueError(
                f"category {category.code}: broken parent chain at {path[0].id!r}"
            )
        seen.add(parent.id)
        path.insert(0, parent)
    return "".join(c.notation for c in path)


def scan_children(schedule: ClassificationSchedule, concept_id: str) -> list[Concept]:
    if concept_id == schedule.base.id:
        return []
    for category in schedule.categories:
        if any(c.id == concept_id for c in category.concepts):
            kids = scan_children_of(category, concept_id)
            return sorted(kids, key=lambda c: (c.ordinal, c.notation))
    raise ValueError(f"schedule {schedule.id}: unknown concept {concept_id!r}")


def random_lexicon(rng: random.Random) -> LexicalSemanticResource:
    """Several languages whose synsets share lemmas, stored in random id order.

    A language may have no root or several; ``root_of`` reports those.
    """
    pool = ["bank", "book", "work", "press", "house", "author", "place"]
    hierarchies: dict[str, dict[str, Synset]] = {}
    for tag in rng.sample(["en", "de", "it", "fr"], rng.randint(1, 4)):
        serials = list(range(rng.randint(0, 30)))
        rng.shuffle(serials)
        synsets: dict[str, Synset] = {}
        for serial in serials:
            synset_id = f"{tag}-s{serial:02d}"
            genus = None
            if synsets and rng.random() < 0.9:
                genus = rng.choice(sorted(synsets))
            synsets[synset_id] = Synset(
                id=synset_id,
                language=tag,
                lemmas=tuple(rng.sample(pool, rng.randint(1, 3))),
                genus=genus,
                differentia=("d",) if genus else (),
            )
        hierarchies[tag] = synsets
    return LexicalSemanticResource("random", hierarchies)


def scan_resolve_sense(resource: LexicalSemanticResource, lemma: str, language: str) -> Synset:
    synsets = resource.language(language)
    needle = lemma.lower()
    matches = sorted((s for s in synsets.values() if needle in s.lemmas), key=lambda s: s.id)
    if not matches:
        raise ValueError(f"lemma {lemma!r} not found in language {language!r}")
    return matches[0]


def scan_root_of(resource: LexicalSemanticResource, tag: str) -> Synset:
    roots = [s for s in resource.language(tag).values() if s.genus is None]
    if len(roots) != 1:
        raise ValueError(f"language {tag!r} has {len(roots)} roots")
    return roots[0]


def random_ontology(rng: random.Random) -> LightweightOntology:
    """A rooted tree with repeated labels, stored in random order."""
    ids = [f"n{i}" for i in range(rng.randint(1, 60))]
    parents: dict[str, str | None] = {ids[0]: None}
    for position in range(1, len(ids)):
        parents[ids[position]] = rng.choice(ids[:position])
    order = ids[:]
    rng.shuffle(order)
    nodes = {
        node_id: OntologyNode(
            id=node_id, label=rng.choice(["a", "b", "c", "B"]), parent=parents[node_id]
        )
        for node_id in order
    }
    return LightweightOntology(ids[0], nodes)


def scan_ontology_children(ontology: LightweightOntology, node_id: str) -> list[OntologyNode]:
    kids = [n for n in ontology.nodes.values() if n.parent == node_id]
    return sorted(kids, key=lambda n: (n.label, n.id))


def scan_validate_backbone(ontology: LightweightOntology) -> list[Finding]:
    """``validate_backbone`` as it walked each parent chain with a list (quadratic)."""
    findings: list[Finding] = []
    nodes = ontology.nodes

    roots = [n.id for n in nodes.values() if n.parent is None]
    if len(roots) != 1:
        findings.append(
            finding("LO2", "nodes", f"expected exactly one root, found {sorted(roots)}")
        )

    for node in nodes.values():
        if node.parent is not None and node.parent not in nodes:
            findings.append(
                finding("LO3", f"nodes/{node.id}", f"dangling parent {node.parent!r}")
            )
    reported_cycles: set[frozenset[str]] = set()
    for node in nodes.values():
        seen: list[str] = []
        current: str | None = node.id
        while current is not None and current in nodes:
            if current in seen:
                members = frozenset(seen[seen.index(current):])
                if members not in reported_cycles:
                    reported_cycles.add(members)
                    findings.append(
                        finding(
                            "LO3",
                            f"nodes/{min(members)}",
                            f"parent cycle {{{', '.join(sorted(members))}}}",
                        )
                    )
                break
            seen.append(current)
            current = nodes[current].parent

    by_parent: dict[str | None, list[OntologyNode]] = {}
    for node in nodes.values():
        by_parent.setdefault(node.parent, []).append(node)
    for parent, siblings in by_parent.items():
        labels: dict[str, str] = {}
        for node in siblings:
            key = node.label.strip().lower()
            if key in labels:
                findings.append(
                    finding(
                        "LO4",
                        f"nodes/{node.id}",
                        f"label {node.label!r} shared with sibling {labels[key]!r}",
                    )
                )
            else:
                labels[key] = node.id

    return sort_findings(findings)


def random_etg(rng: random.Random) -> EntityTypeGraph:
    """Types that may repeat ids or loop, and properties redeclared along chains."""
    ids = [f"T{i}" for i in range(rng.randint(1, 12))]
    types = []
    for position, type_id in enumerate(ids):
        parent = rng.choice(ids[:position]) if position and rng.random() < 0.85 else None
        if rng.random() < 0.05:
            parent = rng.choice(ids)  # may close a loop
        types.append(EntityType(type_id, Label(type_id), parent))
    for _ in range(rng.randint(0, 2)):
        types.insert(rng.randrange(len(types) + 1), EntityType(rng.choice(ids), Label("twin")))
    names = ["name", "title", "size", "link"]
    data = [
        DataProperty(rng.choice(names), rng.choice(ids), rng.choice(["string", "integer"]))
        for _ in range(rng.randint(0, 10))
    ]
    objects = [
        ObjectProperty(rng.choice(names), rng.choice(ids), rng.choice(ids))
        for _ in range(rng.randint(0, 10))
    ]
    return EntityTypeGraph("random", tuple(types), tuple(data), tuple(objects))


def scan_chain(etg: EntityTypeGraph, type_id: str) -> list[EntityType]:
    index: dict[str, EntityType] = {}
    for entity_type in etg.types:
        index.setdefault(entity_type.id, entity_type)
    if type_id not in index:
        raise ValueError(f"ETG {etg.id}: unknown type {type_id!r}")
    chain = [index[type_id]]
    seen = {type_id}
    while chain[-1].parent is not None:
        parent = chain[-1].parent
        if parent not in index or parent in seen:
            raise ValueError(f"ETG {etg.id}: broken parent chain at {chain[-1].id!r}")
        seen.add(parent)
        chain.append(index[parent])
    return chain


def scan_effective(etg: EntityTypeGraph, type_id: str, properties: tuple) -> dict:
    effective: dict = {}
    for entity_type in scan_chain(etg, type_id):
        for prop in properties:
            if prop.domain == entity_type.id and prop.name not in effective:
                effective[prop.name] = prop
    return effective


def random_groundable_etg(rng: random.Random) -> EntityTypeGraph:
    """A lint-clean type tree: one identifying property on the root, a new
    differentiating item and label per type, and property names declared
    once.  One type is labelled ``A`` and one ``b``, so ontology nodes
    labelled ``a``, ``b`` or ``B`` (see :func:`random_ontology`) ground by
    label."""
    count = rng.randint(1, 30)
    labels = [f"kind {i}" for i in range(count)]
    for label, position in zip(("A", "b"), rng.sample(range(count), min(2, count))):
        labels[position] = label
    types = [
        EntityType(f"T{i}", Label(labels[i]), f"T{rng.randrange(i)}" if i else None, (f"d{i}",))
        for i in range(count)
    ]
    data = [DataProperty("id", "T0", "string", identifying=True)] + [
        DataProperty(f"v{k}", f"T{rng.randrange(count)}", rng.choice(["string", "integer"]))
        for k in range(rng.randint(0, 12))
    ]
    objects = [
        ObjectProperty(f"o{k}", f"T{rng.randrange(count)}", f"T{rng.randrange(count)}")
        for k in range(rng.randint(0, 8))
    ]
    return EntityTypeGraph("groundable", tuple(types), tuple(data), tuple(objects))


def scan_grounding(
    ontology: LightweightOntology, etg: EntityTypeGraph, mapping: dict[str, str]
) -> tuple[dict[str, str], list[str]]:
    """Each node's type by its own mapping entry or unique label match, else
    its parent's type, by recursion up the tree; and the paths of the nodes
    that inherit."""
    by_label: dict[str, list[str]] = {}
    for entity_type in etg.types:
        by_label.setdefault(entity_type.label.text.strip().lower(), []).append(entity_type.id)

    def own(node: OntologyNode) -> str | None:
        matches = by_label.get(node.label.strip().lower(), [])
        return mapping.get(node.id) or (matches[0] if len(matches) == 1 else None)

    def grounded(node_id: str) -> str:
        node = ontology.nodes[node_id]
        return own(node) or grounded(node.parent)

    inherited = [f"nodes/{n.id}" for n in ontology.nodes.values() if own(n) is None]
    return {node_id: grounded(node_id) for node_id in ontology.nodes}, sorted(inherited)


def scan_resolve_in_category(category: FacetCategory, notation: str) -> list[Concept]:
    """Each level compares what is left of *notation* with every sibling."""
    level = scan_roots(category)
    remaining = notation
    path: list[Concept] = []
    while remaining:
        candidates = [c for c in level if remaining.startswith(c.notation)]
        if not candidates:
            raise ValueError(
                f"category {category.code}: no concept matches notation {notation!r}"
            )
        longest = max(len(c.notation) for c in candidates)
        best = [c for c in candidates if len(c.notation) == longest]
        if len(best) > 1:
            ids = sorted(c.id for c in best)
            raise ValueError(
                f"category {category.code}: notation {notation!r} is ambiguous between {ids}"
            )
        chosen = best[0]
        path.append(chosen)
        remaining = remaining[len(chosen.notation):]
        level = scan_children_of(category, chosen.id)
    return path


# ---------------------------------------------------------------------------
# Built graphs whose short names collide, and the name resolution that
# rescanned the graph for each query, kept as an oracle

COLLIDING_IDS = (
    "name", "title", "author", "type", "Person", "Place", "Organization", "Publication",
    "x1", "x2", "b.1", "a-b",
)


def random_du_tables(rng: random.Random) -> dict[str, list[dict[str, str]]]:
    """Tables for the fixture mapping spec whose ids are drawn from
    COLLIDING_IDS: an id may equal a property name or a type name, and one
    id may be used by datasets of two types.  Every link has a target."""
    alphabet = ["a", "Z", " ", "\\", '"', "\n", "\t", "^", "é"]

    def text() -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))

    def ids() -> list[str]:
        return rng.sample(COLLIDING_IDS, rng.randint(1, 4))

    def link(targets: list[str]) -> str:
        return rng.choice(targets) if rng.random() < 0.8 else ""

    people, orgs, places = ids(), ids(), ids()
    return {
        "books": [
            {"id": book, "title": text(), "date": rng.choice(["1973", "2001-05-06", "soon"]),
             "pages": rng.choice(["290", "12", "many"]), "author": link(people),
             "publisher": link(orgs)}
            for book in ids()
        ],
        "people": [{"id": person, "name": text()} for person in people],
        "orgs": [
            {"id": org, "name": text(), "hq": link(places), "founder": link(people)}
            for org in orgs
        ],
        "places": [{"id": place, "name": text()} for place in places],
    }


def scan_resolve_names(eg: EntityGraph, names: set[str]) -> dict[str, list[str]]:
    """Graph IRIs whose last segment is each short name, from one pass."""
    found: dict[str, list[str]] = {name: [] for name in names}
    if found:
        iris = {
            term.value
            for triple in eg.triples
            for term in (triple.subject, triple.predicate, triple.object)
            if isinstance(term, Iri)
        }
        for value in iris:
            hits = found.get(value.rsplit("/", 1)[-1])
            if hits is not None:
                hits.append(value)
    return {name: sorted(hits) for name, hits in found.items()}


# ---------------------------------------------------------------------------
# Seeded documents whose hierarchies may close parent cycles, the per-member
# chain walks and the state-colouring walk that the loaders once made, and
# ``lint_etg`` as it walked each type's chain and scanned every property


def _random_parents(rng: random.Random, ids: list[str]) -> dict[str, str | None]:
    """Parents drawn from earlier ids, with a few extra roots; then up to
    three loops, each closed by pointing an ancestor of a member at it."""
    parents: dict[str, str | None] = {
        node: rng.choice(ids[:position]) if position and rng.random() < 0.99 else None
        for position, node in enumerate(ids)
    }
    for _ in range(rng.randint(0, 3)):
        node = above = rng.choice(ids)
        for _ in range(rng.randint(0, 4)):
            if parents[above] in (None, ids[0]):
                break
            above = parents[above]
        parents[above] = node
    return parents


def _shuffled(rng: random.Random, ids: list[str]) -> list[str]:
    order = ids[:]
    rng.shuffle(order)
    return order


def random_cyclic_schedule_document(rng: random.Random) -> str:
    """A schedule whose only possible load error is a parent cycle."""
    categories = []
    for index, code in enumerate(rng.sample("ABCDE", rng.randint(1, 3))):
        ids = [f"{code.lower()}{i}" for i in range(rng.randint(1, 25))]
        parents = _random_parents(rng, ids)
        categories.append({
            "code": code, "indicator": _INDICATORS[index], "characteristic": f"c{index}",
            "concepts": [
                {"id": concept_id, "notation": f"{serial:03d}", "label": f"Concept {serial}",
                 "value": str(serial), "parent": parents[concept_id], "ordinal": serial}
                for serial, concept_id in enumerate(_shuffled(rng, ids))
            ],
        })
    return json.dumps({
        "id": "S", "base": {"id": "base", "notation": "L", "label": "Base"},
        "succession": ["c0", "c1", "c2"], "categories": categories,
    })


def scan_schedule_load_error(document: str) -> str | None:
    """The broken chain of the first concept, in stored order, that has one."""
    raw = json.loads(document)
    for category_raw in raw["categories"]:
        characteristic = category_raw["characteristic"]
        concepts = tuple(
            Concept(c["id"], c["notation"], Label(c["label"]), (characteristic, c["value"]),
                    c["parent"])
            for c in category_raw["concepts"]
        )
        category = FacetCategory(
            category_raw["code"], category_raw["indicator"], characteristic, concepts
        )
        for concept in concepts:
            try:
                scan_full_notation(category, concept)
            except ValueError as exc:
                return str(exc)
    return None


def random_cyclic_etg_document(rng: random.Random) -> str:
    """An ETG whose only possible load errors are its root count and a cycle."""
    ids = [f"T{i}" for i in range(rng.randint(1, 25))]
    parents = _random_parents(rng, ids)
    types = [
        {"id": type_id, "label": type_id, "parent": parents[type_id]}
        for type_id in _shuffled(rng, ids)
    ]
    return json.dumps({"id": "E", "types": types})


def scan_etg_load_error(document: str) -> str | None:
    raw = json.loads(document)
    roots = sorted(t["id"] for t in raw["types"] if t["parent"] is None)
    if len(roots) != 1:
        return f"ETG {raw['id']}: expected exactly one root, found {roots}"
    etg = EntityTypeGraph(
        raw["id"], tuple(EntityType(t["id"], Label(t["label"]), t["parent"]) for t in raw["types"])
    )
    for entity_type in etg.types:
        try:
            scan_chain(etg, entity_type.id)
        except ValueError as exc:
            return str(exc)
    return None


def random_cyclic_lexsem_document(rng: random.Random) -> str:
    """A lexicon whose only possible load errors are root counts and cycles."""
    languages = {}
    for tag in rng.sample(["en", "de", "it"], rng.randint(1, 3)):
        ids = [f"{tag}{i}" for i in range(rng.randint(1, 25))]
        parents = _random_parents(rng, ids)
        languages[tag] = {"synsets": [
            {"id": synset_id, "lemmas": [f"w{synset_id}"], "genus": parents[synset_id],
             "differentia": ["d"] if parents[synset_id] else []}
            for synset_id in _shuffled(rng, ids)
        ]}
    return json.dumps({"id": "L", "languages": languages})


def scan_genus_cycle(tag: str, synsets: dict[str, Synset]) -> str | None:
    """Colour each synset visiting, then done, while walking up from it; a
    synset met while still visiting closes a cycle."""
    state: dict[str, int] = {}  # 0 visiting, 1 done
    for start in synsets:
        if state.get(start) == 1:
            continue
        trail: list[str] = []
        current: str | None = start
        while current is not None and state.get(current) != 1:
            if state.get(current) == 0:
                members = sorted(trail[trail.index(current):])
                return f"language {tag}: genus cycle {{{', '.join(members)}}}"
            state[current] = 0
            trail.append(current)
            current = synsets[current].genus
        for node in trail:
            state[node] = 1
    return None


def scan_lexsem_load_error(document: str) -> str | None:
    for tag, language in json.loads(document)["languages"].items():
        synsets = {
            s["id"]: Synset(s["id"], tag, tuple(s["lemmas"]), "", s["genus"], tuple(s["differentia"]))
            for s in language["synsets"]
        }
        cycle = scan_genus_cycle(tag, synsets)
        if cycle is not None:
            return cycle
        roots = sorted(s.id for s in synsets.values() if s.genus is None)
        if len(roots) != 1:
            return f"language {tag}: expected exactly one root, found {roots}"
    return None


def random_lint_etg(rng: random.Random) -> EntityTypeGraph:
    """Like ``random_etg``, with clashing labels, differentiating items,
    identifying data properties and dangling parents and domains."""
    ids = [f"T{i}" for i in range(rng.randint(1, 12))]
    types = []
    for position, type_id in enumerate(ids):
        parent = rng.choice(ids[:position]) if position and rng.random() < 0.85 else None
        if rng.random() < 0.08:
            parent = rng.choice([*ids, "absent"])  # may close a loop or dangle
        types.append(EntityType(
            type_id, Label(rng.choice(["a", "B", "b ", "the a", type_id])), parent,
            tuple(rng.sample("pqrs", rng.randint(0, 2))),
        ))
    for _ in range(rng.randint(0, 2)):
        types.insert(rng.randrange(len(types) + 1), EntityType(
            rng.choice(ids), Label("twin"), rng.choice([None, *ids]),
            tuple(rng.sample("pqrs", rng.randint(0, 2))),
        ))
    names = ["name", "title", "size", "link"]
    data = [
        DataProperty(rng.choice(names), rng.choice([*ids, "absent"]), "string", rng.random() < 0.3)
        for _ in range(rng.randint(0, 10))
    ]
    objects = [
        ObjectProperty(rng.choice(names), rng.choice(ids), rng.choice([*ids, "absent"]))
        for _ in range(rng.randint(0, 10))
    ]
    return EntityTypeGraph("random", tuple(types), tuple(data), tuple(objects))


_SCAN_WORD_RE = re.compile(r"[A-Za-z0-9]+")


def scan_lint_etg(etg: EntityTypeGraph, config=None) -> list[Finding]:
    """``lint_etg`` as it walked each type's chain for NP2, CH1, EP1 and EP3,
    and scanned every property for each type in EP1 and EP3."""
    enabled = config.enabled if config is not None else None
    stoplist = config.stoplist if config is not None else frozenset()
    findings: list[Finding] = []
    index = {}
    for entity_type in etg.types:
        index.setdefault(entity_type.id, entity_type)

    def rule_enabled(code: str) -> bool:
        return enabled is None or code in enabled

    def safe_chain(type_id: str) -> list[EntityType] | None:
        try:
            return scan_chain(etg, type_id)
        except ValueError:
            return None

    if rule_enabled("NP1"):
        counts: dict[str, int] = {}
        for entity_type in etg.types:
            counts[entity_type.id] = counts.get(entity_type.id, 0) + 1
        for type_id, count in counts.items():
            if count > 1:
                findings.append(
                    finding("NP1", f"types/{type_id}", f"type id declared {count} times")
                )

    if rule_enabled("IC4"):
        by_parent: dict[str | None, list[EntityType]] = {}
        for entity_type in etg.types:
            by_parent.setdefault(entity_type.parent, []).append(entity_type)
        for siblings in by_parent.values():
            labels: dict[str, str] = {}
            for entity_type in siblings:
                key = entity_type.label.text.strip().lower()
                if key in labels:
                    findings.append(finding(
                        "IC4", f"types/{entity_type.id}",
                        f"label {entity_type.label.text!r} shared with sibling {labels[key]!r}",
                    ))
                else:
                    labels[key] = entity_type.id

    if rule_enabled("NP2"):
        paths: dict[tuple[str, ...], EntityType] = {}
        for entity_type in etg.types:
            chain = safe_chain(entity_type.id)
            if chain is None:
                continue
            label_path = tuple(t.label.text.strip().lower() for t in reversed(chain))
            other = paths.get(label_path)
            if other is not None and other.parent != entity_type.parent:
                findings.append(finding(
                    "NP2", f"types/{entity_type.id}",
                    f"label path {'/'.join(label_path)} also names {other.id!r}",
                ))
            elif other is None:
                paths[label_path] = entity_type

    if rule_enabled("CH1"):
        for entity_type in etg.types:
            if entity_type.parent is None:
                continue
            chain = safe_chain(entity_type.id)
            inherited: set[str] = set()
            if chain is not None:
                for ancestor in chain[1:]:
                    inherited |= set(ancestor.differentiating)
            if not set(entity_type.differentiating) - inherited:
                findings.append(finding(
                    "CH1", f"types/{entity_type.id}",
                    "type adds no differentiating item beyond its ancestors",
                ))

    if rule_enabled("VP1") and stoplist:
        lowered = {word.lower() for word in stoplist}
        for entity_type in etg.types:
            words = {w.lower() for w in _SCAN_WORD_RE.findall(entity_type.label.text)}
            for word in sorted(words & lowered):
                findings.append(finding(
                    "VP1", f"types/{entity_type.id}",
                    f"label {entity_type.label.text!r} contains stopword {word!r}",
                ))

    if rule_enabled("EP2"):
        for prop in etg.data_properties:
            if prop.domain not in index:
                findings.append(finding(
                    "EP2", f"data_properties/{prop.name}",
                    f"domain {prop.domain!r} resolves to no type",
                ))
        for prop in etg.object_properties:
            for endpoint, kind in ((prop.domain, "domain"), (prop.range, "range")):
                if endpoint not in index:
                    findings.append(finding(
                        "EP2", f"object_properties/{prop.name}",
                        f"{kind} {endpoint!r} resolves to no type",
                    ))

    if rule_enabled("EP1"):
        for entity_type in etg.types:
            chain = safe_chain(entity_type.id)
            if chain is None:
                continue
            chain_ids = {t.id for t in chain}
            if not any(p.identifying and p.domain in chain_ids for p in etg.data_properties):
                findings.append(finding(
                    "EP1", f"types/{entity_type.id}",
                    "no identifying data property on the type or its ancestors",
                ))

    if rule_enabled("EP3"):
        properties = (*etg.data_properties, *etg.object_properties)
        for entity_type in etg.types:
            chain = safe_chain(entity_type.id)
            if chain is None:
                continue
            own = [p.name for p in properties if p.domain == entity_type.id]
            duplicated_here = {name for name in own if own.count(name) > 1}
            ancestor_ids = {t.id for t in chain[1:]}
            ancestor_names = {p.name for p in properties if p.domain in ancestor_ids}
            for name in sorted(set(own) & ancestor_names | duplicated_here):
                findings.append(finding(
                    "EP3", f"types/{entity_type.id}/{name}",
                    f"property {name!r} redeclared along the inheritance chain",
                ))

    return sort_findings(findings)


# ---------------------------------------------------------------------------
# The entity-graph build a row at a time, kept as an oracle for the column
# build in facetforge.eg


def oracle_cast(value: str, datatype: str) -> Literal | Iri:
    if datatype == "string":
        return Literal(value, "string")
    if datatype == "integer":
        stripped = value.strip()
        if not stripped or not stripped.lstrip("+-").isdigit():
            raise ValueError(f"not an integer: {value!r}")
        return Literal(str(int(stripped)), "integer")
    if datatype == "date":
        stripped = value.strip()
        if len(stripped) == 4 and stripped.isdigit():
            stripped = f"{stripped}-01-01"
        try:
            parsed = date.fromisoformat(stripped)
        except ValueError:
            raise ValueError(f"not a date: {value!r}") from None
        return Literal(parsed.isoformat(), "date")
    if datatype == "iri":
        return Iri(value.strip())
    raise ValueError(f"unknown datatype {datatype!r}")


def oracle_ingest_dataset(entry: DatasetMapping, table) -> tuple[list[TypedRow], list[Finding]]:
    """``eg.ingest_dataset``, one row and one cell at a time."""
    if table and entry.id_column not in table[0]:
        raise ValueError(f"dataset {entry.id}: id column {entry.id_column!r} missing")
    rows: list[TypedRow] = []
    findings: list[Finding] = []
    seen: set[str] = set()
    for raw in table:
        row_id = (raw.get(entry.id_column) or "").strip()
        if not row_id:
            raise ValueError(f"dataset {entry.id}: row with empty id column")
        check_identifier(row_id)
        if row_id in seen:
            findings.append(finding("IG2", f"{entry.id}/{row_id}", "duplicate row identifier"))
            continue
        seen.add(row_id)
        values = []
        for data_map in entry.data_maps:
            cell = raw.get(data_map.column)
            if cell is None or cell == "":
                continue
            try:
                values.append((data_map.property, oracle_cast(cell, data_map.datatype)))
            except ValueError as exc:
                findings.append(finding("IG1", f"{entry.id}/{row_id}/{data_map.column}", str(exc)))
        links = []
        for link_map in entry.link_maps:
            cell = raw.get(link_map.column)
            if cell is None or cell == "":
                continue
            target_id = cell.strip()
            try:
                check_identifier(target_id)
            except ValueError as exc:
                findings.append(finding("IG1", f"{entry.id}/{row_id}/{link_map.column}", str(exc)))
                continue
            links.append((link_map.property, link_map.target, target_id))
        rows.append(TypedRow(row_id, tuple(values), tuple(links)))
    return rows, sort_findings(findings)


def oracle_build_entity_graph(spec: MappingSpec, datasets, base: Iri, at: datetime):
    """``eg.build_entity_graph``, one row and one link at a time: IG3 drops
    rows in dataset order, then the stub-policy links make their stubs, and
    only then is each link's target looked up among the rows and stubs."""
    spec_ids = [entry.id for entry in spec.datasets]
    if set(datasets) != set(spec_ids):
        raise ValueError(
            f"datasets {sorted(datasets)} do not match the mapping spec {sorted(spec_ids)}"
        )
    findings: list[Finding] = []
    ingested = {}
    for entry in spec.datasets:
        ingested[entry.id], row_findings = oracle_ingest_dataset(entry, datasets[entry.id])
        findings.extend(row_findings)
    types = {entry.id: entry.entity_type for entry in spec.datasets}
    row_ids = {dataset: {row.id for row in rows} for dataset, rows in ingested.items()}

    owners: dict[Iri, str] = {}
    kept: dict[str, list[TypedRow]] = {}
    for entry in spec.datasets:
        kept[entry.id] = []
        for row in ingested[entry.id]:
            owner = owners.setdefault(mint_iri(base, [entry.entity_type, row.id]), entry.id)
            if owner != entry.id:
                message = f"row identifier {row.id!r} already used by dataset {owner!r}"
                findings.append(finding("IG3", f"{entry.id}/{row.id}", message + "; row dropped"))
            else:
                kept[entry.id].append(row)

    def missing(target_dataset: str, target_id: str) -> str:
        return f"link target {target_id!r} not found in dataset {target_dataset!r}"

    stubs: dict[tuple[str, str], str] = {}
    for entry in spec.datasets:
        if entry.dangling_policy != "stub":
            continue
        for row in kept[entry.id]:
            for prop, target_dataset, target_id in row.links:
                if target_id in row_ids[target_dataset]:
                    continue
                path = f"{entry.id}/{row.id}/{prop}"
                stub = (target_dataset, target_id)
                if stub not in stubs or path < stubs[stub]:
                    stubs[stub] = path

    present = {dataset: set(ids) for dataset, ids in row_ids.items()}
    for target_dataset, target_id in stubs:
        present[target_dataset].add(target_id)
    type_predicate_iri = type_predicate(base)
    triples: list[Triple] = []
    for entry in spec.datasets:
        for row in kept[entry.id]:
            subject = mint_iri(base, [entry.entity_type, row.id])
            row_triples = [Triple(subject, type_predicate_iri, type_iri(base, entry.entity_type))]
            for prop, value in row.values:
                row_triples.append(Triple(subject, property_predicate(base, prop), value))
            for prop, target_dataset, target_id in row.links:
                if target_id not in present[target_dataset]:
                    path = f"{entry.id}/{row.id}/{prop}"
                    if entry.dangling_policy == "error":
                        offender = finding("LK1", path, missing(target_dataset, target_id))
                        raise DanglingLinkError(offender.render(), offender)
                    findings.append(
                        finding("LK2", path, missing(target_dataset, target_id) + "; link dropped")
                    )
                    continue
                target = mint_iri(base, [types[target_dataset], target_id])
                row_triples.append(Triple(subject, property_predicate(base, prop), target))
            triples.extend(dict.fromkeys(row_triples))

    for (target_dataset, target_id), path in stubs.items():
        findings.append(finding("LK3", path, missing(target_dataset, target_id) + "; stub created"))
        stub = mint_iri(base, [types[target_dataset], target_id])
        if stub not in owners:
            owners[stub] = target_dataset
            triples.append(Triple(stub, type_predicate_iri, type_iri(base, types[target_dataset])))
    graph = EntityGraph(
        iri=mint_iri(base, ["eg", timestamp_identifier(at)]),
        timestamp=at,
        sources=tuple(spec_ids),
        triples=tuple(sorted(triples, key=Triple.sort_key)),
    )
    return graph, sort_findings(findings)


def random_faulty_spec(rng: random.Random) -> MappingSpec:
    """The fixture's four datasets plus ``people2``, a second dataset of
    people (so ids collide across datasets: IG3), each under a random
    dangling policy.  People may carry an ``iri`` column and a second
    column onto ``name`` (``shares_property``)."""
    people_maps = [DataMap("name", "name", "string")]
    if rng.random() < 0.5:
        people_maps.append(DataMap("alias", "name", "string"))
    if rng.random() < 0.5:
        people_maps.append(DataMap("web", "homepage", "iri"))
    policy = lambda: rng.choice(("error", "skip", "stub"))  # noqa: E731
    datasets = [
        DatasetMapping(
            "books", "Publication", "id",
            (DataMap("title", "title", "string"), DataMap("date", "datePublished", "date"),
             DataMap("pages", "numberOfPages", "integer")),
            (LinkMap("author", "author", "people"), LinkMap("publisher", "publisher", "orgs")),
            policy(),
        ),
        DatasetMapping("people", "Person", "id", tuple(people_maps), (), policy()),
        DatasetMapping(
            "orgs", "Organization", "id", (DataMap("name", "name", "string"),),
            (LinkMap("hq", "headquarteredIn", "places"),
             LinkMap("founder", "foundedBy", "people2")),
            policy(),
        ),
        DatasetMapping("places", "Place", "id", (DataMap("name", "name", "string"),), (), policy()),
        DatasetMapping(
            "people2", "Person", "id", tuple(people_maps),
            (LinkMap("employer", "worksFor", "orgs"),), policy(),
        ),
    ]
    return MappingSpec(tuple(rng.sample(datasets, len(datasets))))


FAULTY_CELLS = {
    "string": ["Ann", "Ann", "", " ", "  padded ", "two\nlines"],
    "integer": ["290", "0", "-5", "", " ", "+5", " 12 ", "007", "-0", "many", "1.5", "²", "1\n2"],
    "date": [
        "1973", "2001-05-06", "2024-02-29", "", " ", "0000", " 1999 ", "2023-02-29",
        "2023-13-01", "20230101", "soon", "1973\n", "1973\n1974",
    ],
    "iri": ["https://ex.org/x", "", " https://ex.org/y ", "not an iri", "https://ex.org/a b"],
}


def random_faulty_tables(rng: random.Random, spec: MappingSpec, bad_ids: bool) -> dict:
    """Tables for *spec* with every kind of cell fault: empty, missing and
    white-space cells, cells that fail their cast, link targets that are
    missing or not identifiers, and row ids drawn from a small pool, so
    rows repeat an id (IG2) and datasets of one type share one (IG3).  With
    *bad_ids* a row id may be empty or not an identifier."""
    pool = [f"x{i}" for i in range(6)]
    tables = {}
    for entry in spec.datasets:
        rows = []
        for _ in range(rng.randint(0, 7)):
            row_id = rng.choice(pool)
            roll = rng.random()
            if roll < 0.15:
                row_id = f" {row_id}\t"
            elif bad_ids and roll < 0.25:
                row_id = rng.choice(["", "  ", "x 1", "x/1", "x0\nx1", None])
            row = {} if row_id is None else {entry.id_column: row_id}
            for data_map in entry.data_maps:
                if rng.random() < 0.9:
                    row[data_map.column] = rng.choice(FAULTY_CELLS[data_map.datatype])
            for link_map in entry.link_maps:
                if rng.random() < 0.9:
                    row[link_map.column] = rng.choice(
                        [*pool, *pool, "gone", "", " ", f" {pool[0]} ", "a/b", "x0\nx1"]
                    )
            rows.append(row)
        tables[entry.id] = rows
    return tables


# ---------------------------------------------------------------------------
# Reference readers of the two typed notations: query text and class
# numbers, one character at a time.  The library reads each with one
# regular expression per token; these must give the same result, or the
# same exception type and message, for every input.


def _oracle_iri_end(text: str, start: int) -> int:
    """Index just past the ``>`` closing the IRI that opens at *start*."""
    end = text.find(">", start)
    if end < 0:
        raise _UsageError("query: unterminated IRI")
    return end + 1


def _oracle_tokenize_query(text: str) -> list[str]:
    tokens: list[str] = []
    position = 0
    while position < len(text):
        char = text[position]
        if char.isspace():
            position += 1
        elif char == "<":
            end = _oracle_iri_end(text, position)
            tokens.append(text[position:end])
            position = end
        elif char == '"':
            _, end = _oracle_read_literal(text, position)
            if text.startswith("^^", end):
                end += 2
                if end < len(text) and text[end] == "<":
                    end = _oracle_iri_end(text, end)
                else:
                    while end < len(text) and not text[end].isspace():
                        end += 1
            tokens.append(text[position:end])
            position = end
        elif char == ".":
            tokens.append(".")
            position += 1
        else:
            end = position
            while end < len(text) and not text[end].isspace():
                end += 1
            tokens.append(text[position:end])
            position = end
    return tokens


def _oracle_read_literal(text: str, start: int) -> tuple[str, int]:
    try:
        return exports.read_literal(text, start)
    except FormatError as exc:
        raise _UsageError(f"query: {exc}") from None


def _oracle_parse_literal_token(token: str) -> Literal:
    text, end = _oracle_read_literal(token, 0)
    if end == len(token):
        return Literal(text, "string")
    datatype = token[end + 2:]  # the tokenizer put "^^" after the closing quote
    if datatype.startswith("<"):
        resolved = exports.XSD_NAMES.get(datatype[1:-1])
        if resolved is None:
            raise _UsageError(f"query: unsupported literal datatype {datatype}")
        return Literal(text, resolved)
    return Literal(text, datatype)


def oracle_parse_query_text(text: str, eg: EntityGraph) -> Query:
    """Parse ``?var <name> "literal" .`` pattern text against a graph."""
    tokens = _oracle_tokenize_query(text)
    patterns: list = []
    current: list = []
    for token in tokens:
        if token == ".":
            if len(current) != 3:
                raise _UsageError(f"query: pattern has {len(current)} terms, expected 3")
            patterns.append(tuple(current))
            current = []
        elif token.startswith("?"):
            current.append(Variable(token))
        elif token.startswith("<"):
            current.append(_name_term(token[1:-1], eg))
        elif token.startswith('"'):
            current.append(_oracle_parse_literal_token(token))
        else:
            raise _UsageError(f"query: unrecognized token {token!r}")
    if current:
        raise _UsageError("query: pattern not terminated with '.'")
    return Query(tuple(patterns))


def oracle_parse_class_number(
    schedule: ClassificationSchedule, formula: FacetFormula, text: str
) -> ClassNumber:
    """Parse a class-number string; inverse of synthesis on its range."""
    base = schedule.base.notation
    if not text.startswith(base):
        raise ValueError(f"class number {text!r}: base does not match {base!r}")
    remaining = text[len(base):]
    pending = list(formula.slots)
    all_indicators = set(INDICATORS)
    facets: list[tuple[str, tuple[str, ...]]] = []

    while remaining:
        char = remaining[0]
        slot_index = next(
            (i for i, slot in enumerate(pending)
             if schedule.category(slot.code).indicator == char),
            None,
        )
        if slot_index is None:
            if char in all_indicators:
                raise ValueError(f"class number {text!r}: unexpected indicator {char!r}")
            raise ValueError(f"class number {text!r}: trailing garbage {remaining!r}")
        slot = pending[slot_index]
        del pending[: slot_index + 1]

        end = 1
        while end < len(remaining) and remaining[end] not in all_indicators:
            end += 1
        notation = remaining[1:end]
        if not notation:
            raise ValueError(f"class number {text!r}: empty facet after {char!r}")
        try:
            path = resolve_notation(schedule, notation, slot.code)
        except ValueError:
            raise ValueError(
                f"class number {text!r}: unresolvable {slot.code} notation {notation!r}"
            ) from None
        facets.append((slot.code, tuple(c.id for c in path)))
        remaining = remaining[end:]

    return ClassNumber(schedule.id, base, tuple(facets))


# ---------------------------------------------------------------------------
# ``lint_schedule`` as it walked up to the root once per rule: each concept's
# path for CH1 and VP1, its full notation for NP1 and NP2, and each leaf's
# chain for IC2


def _oracle_path_to_root(category: FacetCategory, concept: Concept) -> list[Concept]:
    """Concepts from the array root down to *concept* (inclusive)."""
    path = [concept]
    seen = {concept.id}
    while path[-1].parent is not None:
        parent = category._by_id.get(path[-1].parent)
        if parent is None or parent.id in seen:
            raise ValueError(
                f"category {category.code}: broken parent chain at {path[-1].id!r}"
            )
        seen.add(parent.id)
        path.append(parent)
    path.reverse()
    return path


def _oracle_full_notation(category: FacetCategory, concept: Concept) -> str:
    """Concatenated notation segments from the array root to *concept*."""
    return "".join(c.notation for c in _oracle_path_to_root(category, concept))


def _oracle_concept_path(category: FacetCategory, concept: Concept) -> str:
    return category.code + "/" + "/".join(c.id for c in _oracle_path_to_root(category, concept))


def _oracle_is_subsequence(needle: list[str], haystack: tuple[str, ...]) -> bool:
    position = 0
    for item in needle:
        while position < len(haystack) and haystack[position] != item:
            position += 1
        if position == len(haystack):
            return False
        position += 1
    return True


def oracle_lint_schedule(
    schedule: ClassificationSchedule, config: LintConfig | None = None
) -> list[Finding]:
    """Apply the structural quality rules; returns canonical-ordered findings."""
    config = config or LintConfig()
    findings: list[Finding] = []

    for category in schedule.categories:
        _oracle_lint_array(category, category.code, category.roots(), config, findings)
        for concept in category.concepts:
            kids = category._children.get(concept.id)
            if kids:
                path = _oracle_concept_path(category, concept)
                _oracle_lint_array(category, path, kids, config, findings)
        _oracle_lint_chains(schedule, category, config, findings)

    if config.rule_enabled("VP1"):
        _oracle_lint_reticence(schedule, findings)
    if config.rule_enabled("NP1"):
        _oracle_lint_synonym(schedule, findings)
    if config.rule_enabled("NP2"):
        _oracle_lint_homonym(schedule, findings)

    return sort_findings(findings)


def _oracle_lint_array(
    category: FacetCategory,
    path: str,
    siblings: Sequence[Concept],
    config: LintConfig,
    findings: list[Finding],
) -> None:
    if not siblings:
        return

    if config.rule_enabled("IC1"):
        names = {c.characteristic_value[0] for c in siblings if c.characteristic_value}
        if len(names) > 1:
            findings.append(
                finding("IC1", path, f"array mixes characteristics {sorted(names)}")
            )

    if config.rule_enabled("IC3"):
        exhaustive = config.exhaustive_arrays is None or path in config.exhaustive_arrays
        if not exhaustive and not any(c.residual for c in siblings):
            findings.append(
                finding("IC3", path, "array not exhaustive and has no residual child")
            )

    if config.rule_enabled("IC4"):
        seen_values: dict[str, str] = {}
        seen_labels: dict[str, str] = {}
        for concept in siblings:
            if concept.characteristic_value:
                value = concept.characteristic_value[1]
                if value in seen_values:
                    findings.append(
                        finding(
                            "IC4",
                            path,
                            f"value {value!r} shared by {seen_values[value]!r} and {concept.id!r}",
                        )
                    )
                else:
                    seen_values[value] = concept.id
            label_key = concept.label.text.strip().lower()
            if label_key in seen_labels:
                findings.append(
                    finding(
                        "IC4",
                        path,
                        f"label {concept.label.text!r} shared by"
                        f" {seen_labels[label_key]!r} and {concept.id!r}",
                    )
                )
            else:
                seen_labels[label_key] = concept.id

    if config.rule_enabled("IC5"):
        ordinals = [c.ordinal for c in siblings]
        if ordinals != sorted(ordinals):
            findings.append(finding("IC5", path, f"ordinals stored as {ordinals}"))


def _oracle_lint_chains(
    schedule: ClassificationSchedule,
    category: FacetCategory,
    config: LintConfig,
    findings: list[Finding],
) -> None:
    if config.rule_enabled("CH1"):
        for concept in category.concepts:
            path = _oracle_concept_path(category, concept)
            if concept.characteristic_value is None:
                findings.append(
                    finding("CH1", path, "concept adds no characteristic value")
                )
            elif concept.parent is not None:
                parent = category._by_id[concept.parent]
                if parent.characteristic_value == concept.characteristic_value:
                    findings.append(
                        finding("CH1", path, "concept repeats its parent's value")
                    )

    if config.rule_enabled("IC2"):
        leaves = [c for c in category.concepts if c.id not in category._children]
        for leaf in leaves:
            chain = _oracle_path_to_root(category, leaf)
            names = [c.characteristic_value[0] for c in chain if c.characteristic_value]
            collapsed = [name for i, name in enumerate(names) if i == 0 or names[i - 1] != name]
            if not _oracle_is_subsequence(collapsed, schedule.succession):
                findings.append(
                    finding(
                        "IC2",
                        _oracle_concept_path(category, leaf),
                        f"chain characteristics {collapsed} do not follow"
                        f" succession {list(schedule.succession)}",
                    )
                )


def _oracle_lint_reticence(schedule: ClassificationSchedule, findings: list[Finding]) -> None:
    stoplist = set(schedule.reticence_stoplist)
    if not stoplist:
        return

    findings.extend(stopword_findings(schedule.base.id, schedule.base.label.text, stoplist))
    for category in schedule.categories:
        for concept in category.concepts:
            path = _oracle_concept_path(category, concept)
            findings.extend(stopword_findings(path, concept.label.text, stoplist))


def _oracle_lint_synonym(schedule: ClassificationSchedule, findings: list[Finding]) -> None:
    occurrences: dict[str, list[str]] = {}
    occurrences.setdefault(schedule.base.id, []).append(schedule.base.notation)
    for category in schedule.categories:
        for concept in category.concepts:
            occurrences.setdefault(concept.id, []).append(
                category.code + ":" + _oracle_full_notation(category, concept)
            )
    for concept_id, notations in occurrences.items():
        if len(notations) > 1:
            findings.append(
                finding(
                    "NP1",
                    concept_id,
                    f"id resolves to notations {sorted(notations)}",
                )
            )


def _oracle_lint_homonym(schedule: ClassificationSchedule, findings: list[Finding]) -> None:
    for category in schedule.categories:
        seen: dict[str, str] = {}
        for concept in category.concepts:
            notation = _oracle_full_notation(category, concept)
            if notation in seen:
                findings.append(
                    finding(
                        "NP2",
                        f"{category.code}/{notation}",
                        f"notation names both {seen[notation]!r} and {concept.id!r}",
                    )
                )
            else:
                seen[notation] = concept.id


LINT_CODES = ("IC1", "IC2", "IC3", "IC4", "IC5", "CH1", "VP1", "NP1", "NP2")


def random_lint_forest(rng: random.Random) -> tuple[ClassificationSchedule, LintConfig]:
    """A directly built schedule whose categories are forests, and a config.

    Ids are distinct within a category but may repeat across categories and
    the base; sibling segments may repeat or be prefixes of each other;
    labels may repeat or hold a stopword; a concept may have no value or
    repeat its parent's; characteristics may lie outside the succession;
    and the stored order is shuffled, ordinals included.
    """
    names = ["c0", "c1", "c2", "c3", "outside"]
    succession = tuple(rng.sample(names[:4], rng.randint(1, 4)))
    pool = ["base", "shared", "twin"]
    categories = []
    arrays = []  # every array's path: the category code, then each concept's path
    for index, code in enumerate(rng.sample("ABCDEF", rng.randint(1, 3))):
        own = rng.choice(names)
        arrays.append(code)
        paths = {None: code}
        placed: list[str] = []
        concepts = []
        for serial in range(rng.randint(0, 14)):
            free = [cid for cid in pool if cid not in placed]
            cid = rng.choice(free) if free and rng.random() < 0.15 else f"{code.lower()}{serial}"
            recent = placed[-3:]
            parent = rng.choice(recent) if recent and rng.random() < 0.7 else None
            placed.append(cid)
            paths[cid] = f"{paths[parent]}/{cid}"
            arrays.append(paths[cid])
            draw = rng.random()
            if draw < 0.06:
                value = None
            elif draw < 0.12 and parent is not None:
                value = next(c for c in concepts if c.id == parent).characteristic_value
            else:
                name = own if rng.random() < 0.8 else rng.choice(names)
                value = (name, f"v{rng.randint(0, 9)}")
            word = rng.choice(["Alpha", "Beta", "Gamma", "General", "Misc", "Delta"])
            concepts.append(
                Concept(
                    id=cid,
                    notation=rng.choice(["1", "2", "3", "12", "A", "1A", "B", "AB"]),
                    label=Label(f"{word} {rng.randint(0, 6)}"),
                    characteristic_value=value,
                    parent=parent,
                    residual=rng.random() < 0.1,
                    ordinal=rng.randint(0, 3),
                )
            )
        rng.shuffle(concepts)
        categories.append(FacetCategory(code, _INDICATORS[index], own, tuple(concepts)))
    schedule = ClassificationSchedule(
        id="FOREST",
        base=Concept(id="base", notation="L", label=Label(rng.choice(["Base", "General base"]))),
        succession=succession,
        categories=tuple(categories),
        reticence_stoplist=tuple(rng.sample(["general", "misc", "delta"], rng.randint(0, 2))),
    )
    enabled = None if rng.random() < 0.5 else frozenset(
        code for code in LINT_CODES if rng.random() < 0.7
    )
    exhaustive = None if rng.random() < 0.3 else frozenset(
        path for path in arrays if rng.random() < 0.5
    )
    return schedule, LintConfig(enabled=enabled, exhaustive_arrays=exhaustive)


# ---------------------------------------------------------------------------
# ``load_schedule`` as it read each concept on its own, with one
# ``Fields.read`` and one ``Concept`` and ``Label`` call per concept, and
# checked each category's forest and sibling segments one concept at a time


def _oracle_check_notation(notation: str, where: str) -> None:
    if not notation:
        raise FormatError(f"{where}: notation must be non-empty text")
    reserved = _RESERVED.search(notation)
    if reserved:
        raise FormatError(f"{where}: notation {notation!r} contains reserved {reserved[0]!r}")


def oracle_load_schedule(document: str | bytes) -> ClassificationSchedule:
    """Load and fully resolve a schedule from its JSON file format."""
    schedule_id, base_raw, succession, stoplist, categories_raw = _SCHEDULE.read(
        parse_json(document, "schedule"), "schedule"
    )
    base_id, base_notation, base_label = _BASE.read(base_raw, "schedule base")
    _oracle_check_notation(base_notation, "base")
    base = Concept(id=base_id, notation=base_notation, label=Label(base_label))

    succession = tuple(succession)
    if len(set(succession)) != len(succession):
        raise FormatError("schedule: duplicate characteristic in succession")

    categories: list[FacetCategory] = []
    seen_ids = {base.id}
    seen_codes: set[str] = set()
    seen_indicators: set[str] = set()
    for cat_raw in categories_raw:
        code, indicator, characteristic, concepts_raw = _CATEGORY.read(cat_raw, "category")
        where = f"category {code}"
        if code in seen_codes:
            raise FormatError(f"{where}: duplicate category code")
        if indicator in seen_indicators:
            raise FormatError(f"{where}: indicator {indicator!r} already used")
        if characteristic not in succession:
            raise FormatError(f"{where}: characteristic {characteristic!r} not in succession")
        seen_codes.add(code)
        seen_indicators.add(indicator)

        concepts: list[Concept] = []
        for concept_raw in concepts_raw:
            concept_id, notation, label, value, parent, sought, residual, ordinal = (
                _CONCEPT.read(concept_raw, where)
            )
            if concept_id in seen_ids:
                raise FormatError(f"{where}: duplicate concept id {concept_id!r}")
            seen_ids.add(concept_id)
            _oracle_check_notation(notation, f"{where}/{concept_id}")
            concepts.append(
                Concept(
                    id=concept_id,
                    notation=notation,
                    label=Label(label),
                    characteristic_value=(characteristic, value),
                    parent=parent,
                    sought=sought,
                    residual=residual,
                    ordinal=ordinal,
                )
            )
        _oracle_check_forest(code, concepts)
        try:
            category = FacetCategory(code, indicator, characteristic, tuple(concepts))
        except ValueError as exc:  # a bad code or indicator
            raise FormatError(str(exc)) from None
        _oracle_check_category_shape(category)
        categories.append(category)

    return ClassificationSchedule(
        id=schedule_id,
        base=base,
        succession=succession,
        categories=tuple(categories),
        reticence_stoplist=tuple(word.lower() for word in stoplist),
    )


def _oracle_check_forest(code: str, concepts: Sequence[Concept]) -> None:
    """Refuse a category whose concepts do not form a forest.

    In this order: an id stored twice, a parent that no concept of the
    category has, and a parent cycle, each with the loader's text and the
    first such fault in stored order.  ``load_schedule`` and
    ``lint_schedule`` share this check.
    """
    by_id: dict[str, Concept] = {}
    for concept in concepts:
        if concept.id in by_id:
            raise FormatError(f"category {code}: duplicate concept id {concept.id!r}")
        by_id[concept.id] = concept
    for concept in concepts:
        if concept.parent is not None and concept.parent not in by_id:
            raise FormatError(f"category {code}: dangling reference {concept.parent!r}")
    for last, _ in parent_cycles(by_id, attrgetter("parent")):
        raise FormatError(f"category {code}: broken parent chain at {last!r}")


def _oracle_check_category_shape(category: FacetCategory) -> None:
    """Reject ambiguous sibling segments at load time.

    Sibling segments must be prefix-free: longest-match resolution is exact
    only under that restriction, and class-number parsing relies on it.
    """
    _oracle_check_siblings(category, category.roots())
    for concept in category.concepts:
        kids = category._children.get(concept.id)
        if kids:
            _oracle_check_siblings(category, kids)


def _oracle_check_siblings(category: FacetCategory, siblings: Sequence[Concept]) -> None:
    segments = [c.notation for c in siblings]
    if len(set(segments)) != len(segments):
        raise FormatError(f"category {category.code}: duplicate sibling notation")
    # Distinct segments are prefix-free exactly when no segment is a prefix
    # of the one after it in sorted order.
    ordered = sorted(segments)
    prefixes = {a for a, b in zip(ordered, ordered[1:]) if b.startswith(a)}
    if prefixes:
        # Name the pair that a scan of all pairs in stored order meets first.
        a = next(s for s in segments if s in prefixes)
        b = next(s for s in segments if s != a and s.startswith(a))
        raise FormatError(
            f"category {category.code}: sibling notations {a!r} and {b!r}"
            " are not prefix-free"
        )


# ---------------------------------------------------------------------------
# Random schedule documents, valid or with seeded faults, for the loader


SCHEDULE_FAULTS = (
    "repeated id", "id of an earlier category", "base id", "bad id", "reserved notation",
    "empty notation", "blank label", "unknown key", "missing key", "retyped value",
    "null sought", "dangling parent", "parent cycle", "repeated sibling notation",
    "prefix sibling notation", "not an object",
)


def random_schedule_document(rng: random.Random, faults: int = 0) -> str:
    """A schedule document, valid unless *faults* of ``SCHEDULE_FAULTS`` are
    seeded into its concepts.

    Categories are bushy (wide and shallow), deep (long chains with a few
    branches) or empty.  Roots either hold ``"parent": null`` or leave the
    key out, ``sought`` and ``residual`` are present or absent, keys come in
    any order, and a category's concepts are sometimes stored children
    first.  Sibling segments are prefix-free, of one length or of mixed
    lengths.
    """
    succession = [f"division-{i}" for i in range(rng.randint(1, 5))]
    codes = rng.sample("ABCDEFGHJKLMPQRSTUVWXYZ", rng.randint(0, len(succession)))
    indicators = rng.sample(_INDICATORS, len(codes))
    words = ["Alpha", "Beta", "Gamma", "Delta", "général", "misc", "K\u212aelvin", "Zeta eta"]
    uid = itertools.count()
    categories = []
    for code, indicator in zip(codes, indicators):
        concepts: list[dict] = []

        def add(parent: str | None, depth: int) -> None:
            if parent is None:
                width = rng.randint(1, 6)
            elif shape == "deep":
                width = 1 if depth < length else 0
                width += rng.random() < 0.05
            else:
                width = rng.randint(0, 5) if depth < 3 else 0
            if not width:
                return
            if rng.random() < 0.3:
                segments = rng.sample(["1", "23", "24", "5A", "6", "70", "8", "9B9"], width)
            else:
                segments = _segments(rng, width, rng.randint(1, 2))
            for ordinal, segment in enumerate(segments):
                serial = next(uid)
                raw = {
                    "id": f"{code.lower()}{serial}", "notation": segment,
                    "label": f"{rng.choice(words)} {serial}", "value": f"v{serial % 7}",
                    "ordinal": rng.choice([ordinal, rng.randint(-2, 9)]),
                }
                if parent is not None or rng.random() < 0.5:
                    raw["parent"] = parent
                for key in ("sought", "residual"):
                    if rng.random() < 0.5:
                        raw[key] = rng.random() < 0.5
                items = list(raw.items())
                rng.shuffle(items)
                concepts.append(dict(items))
                add(raw["id"], depth + 1)

        shape = rng.choice(["bushy", "deep", "empty"])
        length = rng.randint(1, 60)
        if shape != "empty":
            add(None, 1)
        if rng.random() < 0.2:
            concepts.reverse()
        categories.append({
            "code": code, "indicator": indicator, "characteristic": rng.choice(succession),
            "concepts": concepts,
        })
    document = {
        "id": "DOC", "base": {"id": "base", "notation": "L", "label": "Base"},
        "succession": succession, "stoplist": ["misc"], "categories": categories,
    }
    placed = [category["concepts"] for category in categories if category["concepts"]]
    for _ in range(faults if placed else 0):
        _seed_schedule_fault(rng, placed)
    return json.dumps(document, ensure_ascii=rng.random() < 0.5)


def _seed_schedule_fault(rng: random.Random, placed: list[list[dict]]) -> None:
    objects = [[c for c in concepts if isinstance(c, dict)] for concepts in placed]
    if not all(objects):
        return
    index = rng.randrange(len(placed))
    concepts, siblings = placed[index], objects[index]
    target = rng.choice(siblings)
    other = rng.choice(rng.choice(objects))
    fault = rng.choice(SCHEDULE_FAULTS)
    if fault == "repeated id":
        target["id"] = rng.choice(siblings)["id"]
    elif fault == "id of an earlier category":
        target["id"] = other["id"]
    elif fault == "base id":
        target["id"] = "base"
    elif fault == "bad id":
        target["id"] = rng.choice(["a b", "", "é", "x/y", "a\nb"])
    elif fault == "reserved notation":
        target["notation"] = rng.choice(["1,2", "A B", "9.", "'", "x\n"])
    elif fault == "empty notation":
        target["notation"] = ""
    elif fault == "blank label":
        target["label"] = rng.choice(["", "  ", "\n"])
    elif fault == "unknown key":
        target[rng.choice(["note", "parnet"])] = "x"
        if rng.random() < 0.5:  # as many keys as before
            target.pop(rng.choice(["sought", "residual", "parent"]), None)
    elif fault == "missing key":
        target.pop(rng.choice(["id", "notation", "label", "value", "ordinal"]))
    elif fault == "retyped value":
        key = rng.choice(["id", "notation", "label", "value", "parent", "sought", "residual",
                          "ordinal"])
        target[key] = rng.choice([5, 1.5, True, None, [], {}, "x"])
    elif fault == "null sought":
        target[rng.choice(["sought", "residual"])] = None
    elif fault == "dangling parent":
        target["parent"] = "nowhere"
    elif fault == "parent cycle":
        target["parent"] = rng.choice(siblings)["id"]
    elif fault == "repeated sibling notation":
        target["notation"] = rng.choice(siblings)["notation"]
    elif fault == "prefix sibling notation":
        target["notation"] = rng.choice(siblings)["notation"][:1] + rng.choice(["", "Q"])
    else:
        concepts[concepts.index(target)] = rng.choice([[], "concept", None, 3])
