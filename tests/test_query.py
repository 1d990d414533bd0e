from __future__ import annotations

import random
from collections import Counter
from dataclasses import fields, replace

import pytest

from facetforge.cli import parse_query_text
from facetforge.core import Iri
from facetforge.eg import Literal, Triple, build_entity_graph, snapshot
from facetforge.exports import (
    export_fca,
    export_jsongraph,
    export_ntriples,
    load_entity_graph_json,
    parse_ntriples,
    render_term,
)
from facetforge.query import BindingTable, Query, Variable, run_query
from helpers import (
    AT,
    BASE,
    brute_force_query,
    nested_loop_query,
    random_anchored_query,
    random_du_tables,
    random_entity_graph,
    random_export_graph,
    random_query,
    random_wide_graph,
    scan_resolve_names,
)


def iri(*segments):
    return Iri(BASE.value + "/" + "/".join(segments))


class TestQueryType:
    def test_variable_name_grammar(self):
        Variable("?b")
        Variable("?long_name2")
        for bad in ("b", "?B", "?2x", "?"):
            with pytest.raises(ValueError):
                Variable(bad)

    def test_pattern_count_limits(self):
        pattern = (Variable("?s"), Variable("?p"), Variable("?o"))
        with pytest.raises(ValueError, match="no patterns"):
            Query(())
        with pytest.raises(ValueError, match="exceeds 8"):
            Query(tuple(pattern for _ in range(9)))

    def test_variables_in_first_appearance_order(self):
        query = Query(
            (
                (Variable("?b"), iri("prop", "publisher"), Variable("?o")),
                (Variable("?o"), iri("prop", "foundedBy"), Variable("?p")),
            )
        )
        assert query.variables() == ["?b", "?o", "?p"]


class TestRunQuery:
    def test_publisher_lookup(self, figure_eg):
        table = run_query(
            figure_eg,
            Query(((Variable("?b"), iri("prop", "publisher"), iri("Organization", "harper-row")),)),
        )
        assert table.columns == ("?b",)
        assert table.rows == ((iri("Publication", "b1"),),)

    def test_join_across_patterns(self, figure_eg):
        table = run_query(
            figure_eg,
            Query(
                (
                    (Variable("?o"), iri("prop", "type"), iri("type", "Organization")),
                    (Variable("?o"), iri("prop", "foundedBy"), Variable("?p")),
                )
            ),
        )
        assert table.rows == ((iri("Organization", "harper-row"), iri("Person", "james-harper")),)

    def test_variable_free_query_is_boolean(self, figure_eg):
        holds = Query(((iri("Publication", "b1"), iri("prop", "author"), iri("Person", "schumacher")),))
        table = run_query(figure_eg, holds)
        assert table.columns == ()
        assert table.holds()

        fails = Query(((iri("Publication", "b1"), iri("prop", "author"), iri("Person", "james-harper")),))
        assert not run_query(figure_eg, fails).holds()

    def test_literal_constants_match(self, figure_eg):
        table = run_query(
            figure_eg,
            Query(((Variable("?b"), iri("prop", "datePublished"), Literal("1973-01-01", "date")),)),
        )
        assert table.rows == ((iri("Publication", "b1"),),)

    def test_rows_deduplicated_and_sorted(self, figure_eg):
        table = run_query(
            figure_eg, Query(((Variable("?s"), iri("prop", "name"), Variable("?n")),))
        )
        rendered = [tuple(render_term(t) for t in row) for row in table.rows]
        assert rendered == sorted(rendered)
        assert len(set(table.rows)) == len(table.rows)
        assert len(table.rows) == 4

    def test_row_width_checked(self):
        with pytest.raises(ValueError, match="row width"):
            BindingTable(("?a",), ((),))


class TestOracleEquivalence:
    def test_matches_brute_force_enumeration(self):
        rng = random.Random(4242)
        for _ in range(120):
            graph = random_entity_graph(rng, max_triples=30)
            query = random_query(rng, graph)
            columns, expected = brute_force_query(graph, query)
            table = run_query(graph, query)
            assert table.columns == columns
            assert set(table.rows) == expected


class TestNestedLoopOracle:
    """run_query against the nested-loop evaluator it replaced, on graphs of
    a few hundred to a thousand triples, where the brute-force oracle's
    enumeration of assignments is out of reach."""

    BUDGET = 100_000  # triple matches the nested loop may spend on one query
    FEATURES = ("variable predicate", "repeated variable", "no shared variable",
                "variable-free", "unknown constant")

    def oracle(self, graph, query):
        """The nested loop's table, or None when it would exceed BUDGET.

        Query prefixes are evaluated in turn: the bindings after one prefix
        fix what the next pattern costs (one match per triple per binding).
        """
        table = None
        cost = 0
        for end in range(1, len(query.patterns) + 1):
            cost += len(graph.triples) * (1 if table is None else len(table.rows))
            if cost > self.BUDGET:
                return None
            table = nested_loop_query(graph, Query(query.patterns[:end]))
            if not table.rows:
                return BindingTable(tuple(query.variables()), ())
        return table

    @staticmethod
    def features(graph, query) -> set[str]:
        terms = set(graph.terms())
        names = [{t.name for t in p if isinstance(t, Variable)} for p in query.patterns]
        found = set()
        if any(isinstance(p[1], Variable) for p in query.patterns):
            found.add("variable predicate")
        if any(len(n) < sum(isinstance(t, Variable) for t in p)
               for n, p in zip(names, query.patterns)):
            found.add("repeated variable")
        if len(names) > 1 and any(
            n and all(not n & m for j, m in enumerate(names) if j != i)
            for i, n in enumerate(names)
        ):
            found.add("no shared variable")
        if not query.variables():
            found.add("variable-free")
        if any(not isinstance(t, Variable) and t not in terms
               for p in query.patterns for t in p):
            found.add("unknown constant")
        return found

    def test_matches_nested_loop_on_wide_graphs(self):
        rng = random.Random(90210)
        seen, matched = Counter(), Counter()
        cases = 0
        while cases < 200:
            graph = random_wide_graph(rng, rng.randint(200, 1000))
            query = random_anchored_query(rng, graph)
            expected = self.oracle(graph, query)
            if expected is None:
                continue
            assert run_query(graph, query) == expected
            cases += 1
            found = self.features(graph, query)
            seen.update(found)
            if expected.rows:
                matched.update(found)
        assert all(seen[name] >= 10 for name in self.FEATURES), seen
        assert all(matched[name] >= 3 for name in self.FEATURES[:-1]), matched


def built_graphs(schema_graph, mapping_spec, seeds):
    """Each seed's built graph, and the graphs its JSON and N-Triples
    exports load back to."""
    for seed in seeds:
        tables = random_du_tables(random.Random(seed))
        graph, _ = build_entity_graph(schema_graph, mapping_spec, tables, BASE, AT)
        parsed = sorted(parse_ntriples(export_ntriples(graph)), key=Triple.sort_key)
        yield graph
        yield load_entity_graph_json(export_jsongraph(graph))
        yield replace(graph, triples=tuple(parsed))


class TestBuiltAndLoadedGraphs:
    def test_matches_brute_force_enumeration(self, schema_graph, mapping_spec):
        rng = random.Random(31)
        cases = matched = 0
        for graph in built_graphs(schema_graph, mapping_spec, range(40)):
            for _ in range(6):
                query = random_anchored_query(rng, graph, max_patterns=3)
                if len(query.variables()) > 2:
                    continue
                columns, expected = brute_force_query(graph, query)
                table = run_query(graph, query)
                assert table.columns == columns
                assert set(table.rows) == expected
                cases += 1
                matched += bool(expected)
        assert cases >= 300 and matched >= 150


class TestShortNames:
    """The graph's short-name index against the scan each query used to make."""

    def test_index_matches_scan_where_names_collide(self, schema_graph, mapping_spec):
        collisions = Counter()
        for graph in built_graphs(schema_graph, mapping_spec, range(60)):
            names = {
                term.value.rsplit("/", 1)[-1]
                for triple in graph.triples
                for term in triple
                if isinstance(term, Iri)
            }
            names |= {"nobody", "prop", ""}
            expected = scan_resolve_names(graph, names)
            for name in sorted(names):
                found = graph.short_names.get(name, ())
                assert [term.value for term in found] == expected[name]
                assert all(type(term) is Iri for term in found)
                if len(found) > 1:
                    kinds = Counter(term.value.split("/")[-2] for term in found)
                    collisions["property"] += "prop" in kinds
                    collisions["type"] += "type" in kinds
                    collisions["two types"] += sum(
                        count for kind, count in kinds.items() if kind not in ("prop", "type")
                    ) > 1
            assert set(graph.short_names) == {name for name in names if expected[name]}
        assert min(collisions.values()) >= 30, collisions

    def test_parse_errors_match_scan(self, schema_graph, mapping_spec):
        for graph in built_graphs(schema_graph, mapping_spec, range(20)):
            expected = scan_resolve_names(graph, {"name", "Person", "x1", "nobody"})
            for name, iris in expected.items():
                try:
                    (pattern,) = parse_query_text(f"?s <{name}> ?o .", graph).patterns
                    outcome = pattern[1].value
                except ValueError as exc:
                    outcome = str(exc)
                if not iris:
                    assert outcome == f"query: name {name!r} matches no term in the graph"
                elif len(iris) > 1:
                    assert outcome == f"query: name {name!r} is ambiguous: {iris}"
                else:
                    assert outcome == iris[0]

    def test_index_takes_no_part_in_equality(self, figure_eg):
        graph = replace(figure_eg)
        assert graph.short_names["schumacher"] == (Iri(BASE.value + "/Person/schumacher"),)
        assert graph == figure_eg and hash(graph) == hash(figure_eg)
        assert repr(graph) == repr(figure_eg) and "short_names" not in repr(graph)

    def test_names_resolve_without_reading_the_triples_again(self, figure_eg):
        class CountingTriples(tuple):
            iterations = 0

            def __iter__(self):
                self.iterations += 1
                return super().__iter__()

        triples = CountingTriples(figure_eg.triples)
        graph = replace(figure_eg, triples=triples)
        text = "?b <author> <schumacher> . ?b <title> ?t . ?b <publisher> ?o ."
        assert run_query(graph, parse_query_text(text, graph)) == run_query(
            figure_eg, parse_query_text(text, figure_eg)
        )
        first = triples.iterations
        assert first > 0
        for _ in range(3):
            parse_query_text(text, graph)
        assert triples.iterations == first


def copied(term):
    """A term equal to *term* that is not the same object."""
    return Iri(term.value) if isinstance(term, Iri) else Literal(term.text, term.datatype)


def with_copied_terms(graph):
    """The same graph with a new object for every term of every triple."""
    return replace(graph, triples=tuple(Triple(*map(copied, t)) for t in graph.triples))


def with_copied_constants(query):
    return Query(tuple(
        tuple(t if isinstance(t, Variable) else copied(t) for t in pattern)
        for pattern in query.patterns
    ))


X, Y, Z, P = Variable("?x"), Variable("?y"), Variable("?z"), Variable("?p")
ABSENT = (Iri("https://ex.org/w/absent"), Literal("absent", "string"), Literal("1", "string"))


def repeated_variable_query(rng, graph):
    """A pattern repeating a variable (``?x p ?x``, ``?x ?x ?y`` and the
    like), alone or joined to a pattern read off the graph."""
    anchor = rng.choice(graph.triples)
    first = rng.choice([
        (X, anchor.predicate, X), (X, X, Y), (X, Y, X), (Y, X, X), (X, X, X),
        (X, X, anchor.object), (anchor.subject, X, X),
    ])
    if rng.random() < 0.5:
        return Query((first,))
    second = rng.choice([(Y, anchor.predicate, Z), (X, Z, anchor.object), (Z, Y, X)])
    return Query((first, second))


def absent_constant_query(rng, graph):
    """A query read off the graph with one constant the graph does not hold."""
    query = random_anchored_query(rng, graph, max_patterns=2)
    patterns = [list(pattern) for pattern in query.patterns]
    pattern = rng.choice(patterns)
    pattern[rng.choice([0, 1, 2])] = rng.choice(ABSENT)
    return Query(tuple(tuple(p) for p in patterns))


class TestDistinctEqualTerms:
    """Queries compare terms by value; they must answer as the oracles do on
    graphs and queries whose equal terms are distinct objects, and only a
    query may build the graph's query views."""

    def test_matches_nested_loop_with_distinct_equal_terms(self):
        rng = random.Random(6060)
        seen = Counter()
        for case in range(300):
            graph = with_copied_terms(random_wide_graph(rng, rng.randint(100, 300)))
            kind = ("repeated", "absent", "anchored")[case % 3]
            if kind == "repeated":
                query = repeated_variable_query(rng, graph)
            elif kind == "absent":
                query = absent_constant_query(rng, graph)
            else:
                query = random_anchored_query(rng, graph, max_patterns=2)
            query = with_copied_constants(query)
            expected = nested_loop_query(graph, query)
            assert run_query(graph, query) == expected
            seen[kind, bool(expected.rows)] += 1
            if kind == "absent":
                assert expected.rows == ()
                assert not run_query(graph, query).holds()
        assert seen["repeated", True] >= 40 and seen["anchored", True] >= 40, seen

    def test_matches_brute_force_with_distinct_equal_terms(self):
        rng = random.Random(8080)
        matched = Counter()
        for case in range(300):
            graph = random_entity_graph(rng, max_triples=30)
            if not graph.triples:
                continue
            graph = with_copied_terms(graph)
            kind = ("repeated", "absent", "random")[case % 3]
            if kind == "repeated":
                query = repeated_variable_query(rng, graph)
            elif kind == "absent":
                query = absent_constant_query(rng, graph)
            else:
                query = random_query(rng, graph)
            query = with_copied_constants(query)
            columns, expected = brute_force_query(graph, query)
            table = run_query(graph, query)
            assert table.columns == columns
            assert set(table.rows) == expected
            matched[kind] += bool(expected)
        assert matched["absent"] == 0
        assert matched["repeated"] >= 30 and matched["random"] >= 10, matched

    def test_absent_constants_give_no_rows(self, figure_eg):
        book = iri("Publication", "b1")
        title = iri("prop", "title")
        for absent in (*ABSENT, iri("Publication", "nobody"), Literal("1973-01-01", "string")):
            for pattern in ((book, title, absent), (X, title, absent), (absent, title, X),
                            (book, absent, X)):
                table = run_query(figure_eg, Query(((X, title, Y), pattern)))
                assert table.rows == () and table.columns == ("?x", "?y")
            assert not run_query(figure_eg, Query(((book, title, absent),))).holds()

    def test_view_takes_no_part_in_equality(self, figure_eg):
        graph = replace(figure_eg)
        assert "by_predicate" not in graph.__dict__
        run_query(graph, Query(((X, iri("prop", "name"), Y),)))
        assert "by_predicate" in graph.__dict__ and "by_predicate" not in repr(graph)
        assert graph == figure_eg and hash(graph) == hash(figure_eg)
        assert repr(graph) == repr(figure_eg)

    def test_builds_exports_and_snapshots_never_build_the_view(
        self, schema_graph, mapping_spec, tmp_path
    ):
        tables = random_du_tables(random.Random(3))
        graph, _ = build_entity_graph(schema_graph, mapping_spec, tables, BASE, AT)
        exported = export_jsongraph(graph), export_ntriples(graph), export_fca(graph)
        snapshot(graph, tmp_path)
        loaded = load_entity_graph_json(exported[0])
        parsed = replace(graph, triples=tuple(sorted(parse_ntriples(exported[1]),
                                                     key=Triple.sort_key)))
        for made in (graph, loaded, parsed):
            assert "short_names" not in made.__dict__ and "by_predicate" not in made.__dict__
        assert run_query(graph, Query(((X, Y, Z),))).rows

    def test_second_query_reads_no_triples(self, figure_eg):
        """Constant-predicate queries and name lookups read the triples only
        to build their views; a variable predicate reads them by design."""

        class CountingTriples(tuple):
            iterations = 0

            def __iter__(self):
                self.iterations += 1
                return super().__iter__()

        triples = CountingTriples(figure_eg.triples)
        graph = replace(figure_eg, triples=triples)
        texts = [
            "?x <author> <schumacher> . ?x <title> ?y .",
            "?x <type> <Publication> . ?x <publisher> ?y . ?y <foundedBy> ?z .",
        ]

        def answers(graph):
            return [run_query(graph, parse_query_text(text, graph)) for text in texts]

        expected = answers(figure_eg)
        assert all(table.rows for table in expected)
        assert answers(graph) == expected
        first = triples.iterations
        assert first > 0
        for _ in range(3):
            assert answers(graph) == expected
        assert triples.iterations == first

    def test_queries_keep_only_the_name_map_and_predicate_groups(self, figure_eg):
        graph = replace(figure_eg)
        for text in ("?x <author> <schumacher> .", "?x ?p <harper-row> .", "?x ?x ?y .",
                     "<b1> <title> ?t . ?b <publisher> ?o ."):
            run_query(graph, parse_query_text(text, graph))
        stored = {f.name for f in fields(graph)}
        assert set(graph.__dict__) == stored | {"short_names", "by_predicate"}


def predicate_view_query(rng, graph):
    """A query that reads past or around the predicate groups: a variable
    predicate, a repeated variable in predicate position, a constant
    predicate the graph does not carry as one, or one that is also the
    pattern's subject, alone or joined to a pattern read off the graph."""
    anchor = rng.choice(graph.triples)
    kind = rng.choice(["variable", "repeated", "absent", "self"])
    if kind == "variable":
        first = rng.choice([(X, P, Y), (anchor.subject, P, Y), (X, P, anchor.object)])
    elif kind == "repeated":
        first = rng.choice([(X, X, Y), (X, Y, Y), (X, X, X), (X, P, X)])
    elif kind == "absent":
        # an IRI outside the graph, or a term of the graph that is never a predicate
        carried = {t.predicate for t in graph.triples}
        never = [t for t in (anchor.subject, anchor.object) if t not in carried]
        absent = rng.choice([ABSENT[0], *never])
        first = (X, absent, Y)
    else:
        first = (anchor.predicate, anchor.predicate, Y)
    if rng.random() < 0.5:
        return kind, Query((first,))
    second = rng.choice([(X, anchor.predicate, Z), (Y, P, Z), (Z, anchor.predicate, Y)])
    return kind, Query((first, second))


class TestPredicateView:
    """Constant predicates read only their group of ``by_predicate``; the
    answers must be the oracles' whatever the predicate position holds."""

    def test_groups_partition_the_interned_triples(self):
        """The groups partition the graph's own triples, in graph order."""
        rng = random.Random(515)
        for _ in range(20):
            graph = with_copied_terms(random_wide_graph(rng, rng.randint(50, 300)))
            groups = graph.by_predicate
            assert sorted(map(id, (t for g in groups.values() for t in g))) == sorted(
                map(id, graph.triples)
            )
            for predicate, group in groups.items():
                assert list(group) == [t for t in graph.triples if t.predicate == predicate]

    def test_matches_nested_loop_with_distinct_equal_terms(self):
        rng = random.Random(9191)
        seen = Counter()
        for _ in range(300):
            graph = with_copied_terms(random_wide_graph(rng, rng.randint(100, 300)))
            kind, query = predicate_view_query(rng, graph)
            query = with_copied_constants(query)
            expected = nested_loop_query(graph, query)
            assert run_query(graph, query) == expected
            seen[kind, bool(expected.rows)] += 1
        assert all(seen[kind, True] >= 20 for kind in ("variable", "repeated", "self")), seen
        assert seen["absent", True] == 0 and seen["absent", False] >= 40, seen

    def test_matches_brute_force_with_distinct_equal_terms(self):
        rng = random.Random(4242)
        matched = Counter()
        for _ in range(300):
            graph = random_entity_graph(rng, max_triples=25)
            if not graph.triples:
                continue
            graph = with_copied_terms(graph)
            kind, query = predicate_view_query(rng, graph)
            columns, expected = brute_force_query(graph, with_copied_constants(query))
            table = run_query(graph, with_copied_constants(query))
            assert table.columns == columns
            assert set(table.rows) == expected
            matched[kind] += bool(expected)
        assert all(matched[kind] >= 10 for kind in ("variable", "repeated", "self")), matched


class TestQueryLiterals:
    """Literals in query text read back what the exporter renders."""

    def test_rendered_literals_hold_as_ask_queries(self):
        rng = random.Random(21)
        seen = Counter()
        for _ in range(150):
            graph = random_export_graph(rng, loadable=True)
            for triple in graph.triples:
                if not isinstance(triple.object, Literal):
                    continue
                text = " ".join(render_term(term) for term in triple) + " ."
                assert run_query(graph, parse_query_text(text, graph)).holds(), text
                seen.update(char for char in '\\"\n\r\t' if char in triple.object.text)
                seen["ends in a backslash"] += triple.object.text.endswith("\\")
        assert len(seen) == 6 and min(seen.values()) >= 20, seen

    def test_plain_literal_with_escapes_and_carets(self, figure_eg):
        literal = Literal('a\t"b"^^c\\', "string")
        subject = Iri(BASE.value + "/Publication/b1")
        predicate = Iri(BASE.value + "/prop/title")
        graph = replace(figure_eg, triples=(Triple(subject, predicate, literal),))
        typed = f"<b1> <title> {render_term(literal)} ."
        for text in ('<b1> <title> "a\\t\\"b\\"^^c\\\\" .', typed):
            (pattern,) = parse_query_text(text, graph).patterns
            assert pattern == (subject, predicate, literal)
