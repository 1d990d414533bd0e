"""Randomized generators and independent oracles shared by the tests."""

from __future__ import annotations

import itertools
import random
from datetime import datetime, timezone

from facetforge.core import Iri, Label, parse_timestamp
from facetforge.eg import EntityGraph, Literal, Triple
from facetforge.facet import FacetFormula, FormulaSlot
from facetforge.exports import render_term
from facetforge.query import BindingTable, Pattern, Query, Term, Variable
from facetforge.schedule import ClassificationSchedule, Concept, FacetCategory

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
        entities=(),
        triples=ordered,
        counts=(0, len(ordered)),
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
        entities=(),
        triples=ordered,
        counts=(0, len(ordered)),
    )


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
