from __future__ import annotations

import random
from collections import Counter

import pytest

from facetforge.core import Iri
from facetforge.eg import Literal
from facetforge.exports import render_term
from facetforge.query import BindingTable, Query, Variable, run_query
from helpers import (
    BASE,
    brute_force_query,
    nested_loop_query,
    random_anchored_query,
    random_entity_graph,
    random_query,
    random_wide_graph,
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
