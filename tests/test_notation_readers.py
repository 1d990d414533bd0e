"""The query-text and class-number readers against their character-at-a-time
references in ``helpers``: on seeded valid and mutated texts, each gives the
same result, or raises the same exception type with the same message.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from facetforge.cli import parse_query_text
from facetforge.core import Iri
from facetforge.eg import Literal, Triple, property_predicate
from facetforge.exports import XSD
from facetforge.facet import parse_class_number, synthesize_class_number
from helpers import (
    BASE,
    oracle_parse_class_number,
    oracle_parse_query_text,
    random_assignments,
    random_formula,
    random_schedule,
)

# Each error the query reader raises, by a part of its message.
QUERY_ERRORS = {
    "unterminated IRI": "query: unterminated IRI",
    "unterminated literal": "query: unterminated literal",
    "bad escape": "query: bad escape",
    "unknown name": "matches no term in the graph",
    "ambiguous name": "is ambiguous",
    "bad IRI": "invalid IRI",
    "bad variable": "invalid variable name",
    "unsupported datatype IRI": "query: unsupported literal datatype <",
    "bad datatype": "literal datatype must be one of",
    "unrecognized token": "query: unrecognized token",
    "pattern size": "terms, expected 3",
    "no final dot": "query: pattern not terminated with '.'",
    "no pattern": "query has no patterns",
}
CLASS_NUMBER_ERRORS = (
    "base does not match",
    "trailing garbage",
    "unexpected indicator",
    "empty facet after",
    "unresolvable",
)
SPACES = [" ", " ", "  ", "\t", "\n", "\u2003", "\u00a0"]
QUERY_PIECES = [
    "<", ">", '"', "\\", "^", "^^", "^^<", ".", "?", " ", "\t", "\u3000", "x", "n", "#",
    "<b1>", "<schumacher>", '"t"', "integer", "://", "?S",
]


def outcome(parse, *args):
    """What *parse* returns, or the type and message of what it raises."""
    try:
        return parse(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def quoted(text: str) -> str:
    escapes = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    return '"' + "".join(escapes.get(char, char) for char in text) + '"'


@pytest.fixture(scope="module")
def graph(figure_eg):
    """The figure graph, plus a second ``schumacher`` (so that short name
    is ambiguous) whose name needs every escape."""
    other = Iri("https://ex.org/other/schumacher")
    extra = (Triple(other, property_predicate(BASE, "name"), Literal('a "b"\\\n\tc\r', "string")),)
    return replace(figure_eg, triples=figure_eg.triples + extra)


def query_term(rng: random.Random, graph, term) -> str:
    if rng.random() < 0.3:
        return rng.choice(["?s", "?o", "?x1", "?p_2"])
    if isinstance(term, Iri):
        short = term.value.rsplit("/", 1)[-1]
        if len(graph.short_names[short]) == 1 and rng.random() < 0.7:
            return f"<{short}>"
        return f"<{term.value}>"
    text = quoted(term.text)
    forms = [f"{text}^^<{XSD[term.datatype]}>", f"{text}^^{term.datatype}"]
    if term.datatype == "string":
        forms.append(text)
    return rng.choice(forms)


def valid_query_text(rng: random.Random, graph) -> str:
    parts = []
    for triple in rng.sample(graph.triples, rng.randint(1, 4)):
        for term in triple:
            parts += [query_term(rng, graph, term), rng.choice(SPACES)]
        parts += [".", rng.choice(SPACES)]
    return rng.choice(["", *SPACES]) + "".join(parts)


def mutated(rng: random.Random, text: str, pieces) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        roll = rng.random()
        if roll < 0.5:
            text = text[:at] + rng.choice(pieces) + text[at:]
        elif roll < 0.8:
            text = text[:at] + text[at + rng.randint(1, 3):]
        else:
            text = text[:at]
    return text


class TestQueryText:
    def test_valid_texts_match_the_reference(self, graph):
        rng = random.Random(20)
        for _ in range(1500):
            text = valid_query_text(rng, graph)
            parsed = parse_query_text(text, graph)
            assert parsed == oracle_parse_query_text(text, graph), text

    def test_mutated_texts_match_the_reference(self, graph):
        rng = random.Random(21)
        seen = set()
        for _ in range(6000):
            text = mutated(rng, valid_query_text(rng, graph), QUERY_PIECES)
            result = outcome(parse_query_text, text, graph)
            assert result == outcome(oracle_parse_query_text, text, graph), text
            if isinstance(result, tuple):
                seen |= {kind for kind, part in QUERY_ERRORS.items() if part in result[1]}
        assert seen == set(QUERY_ERRORS)

    @pytest.mark.parametrize(
        "text, message",
        [
            # A malformed token wins over every name error, even one before it.
            ("?b <nobody> ?o . ?o <title", "query: unterminated IRI"),
            ("?b <nobody> ?o . ?o <title> \"a\\q\" .", "query: bad escape \\q in literal"),
            ("?b <nobody> ?o . ?o <title> \"a", "query: unterminated literal"),
            ('?b <title> "x"^^<abc', "query: unterminated IRI"),
            ('?b <title> "x"^^<abc .', "query: unterminated IRI"),
            ('?b <title> "x"^^ .', "literal datatype must be one of"),
            ('?b <title> "x"^^', "literal datatype must be one of"),
            ('?b <title> "x"^^float .', "literal datatype must be one of"),
            ('?b <title> "x"^^"y" .', "literal datatype must be one of"),
            ('?b <title> "x"^^integer. ', "literal datatype must be one of"),
            ('?b <title> "x"^^<http://ex.org/dt> .', "query: unsupported literal datatype"),
            ("?b <title> > .", "query: unrecognized token '>'"),
            ('?b <title> "x"abc .', "query: unrecognized token 'abc'"),
            ("?b <title> ?t.", "invalid variable name '?t.'"),
            ("?b <title> <https://ex.org/a b> .", "invalid IRI"),
            ("?b <title> ?t", "query: pattern not terminated with '.'"),
            ("?b ?t .", "query: pattern has 2 terms, expected 3"),
            ("  \n", "query has no patterns"),
        ],
    )
    def test_errors(self, graph, text, message):
        error_type, error = outcome(parse_query_text, text, graph)
        assert message in error
        assert outcome(oracle_parse_query_text, text, graph) == (error_type, error)

    @pytest.mark.parametrize(
        "text",
        [
            '<b1><title>"Small Is Beautiful".',
            '?b <title> "x"^^<http://www.w3.org/2001/XMLSchema#string>.',
            '?b <numberOfPages> "288"^^integer\n.',
            '?b <datePublished> "1973-01-01"^^date .',
            '?b <title> "" .',
            '?b <name> "a \\"b\\"\\\\\\n\\tc\\r" .',
        ],
    )
    def test_valid_edge_cases(self, graph, text):
        assert parse_query_text(text, graph) == oracle_parse_query_text(text, graph)


class TestClassNumber:
    def test_valid_and_mutated_texts_match_the_reference(self):
        rng = random.Random(22)
        seen = set()
        valid = 0
        for _ in range(400):
            schedule = random_schedule(rng)
            formula = random_formula(rng, schedule)
            _, text = synthesize_class_number(
                schedule, formula, random_assignments(rng, schedule, formula)
            )
            pieces = [
                ",", ";", ":", ".", "'", " ", "x", schedule.base.notation,
                *rng.sample("0123456789ABCDEFGHJKMNPRSTUVWXYZ", 4),
            ]
            for candidate in [text] + [mutated(rng, text, pieces) for _ in range(10)]:
                result = outcome(parse_class_number, schedule, formula, candidate)
                assert result == outcome(oracle_parse_class_number, schedule, formula, candidate)
                if isinstance(result, tuple):
                    seen |= {kind for kind in CLASS_NUMBER_ERRORS if kind in result[1]}
                else:
                    valid += 1
        assert seen == set(CLASS_NUMBER_ERRORS)
        assert valid > 400
