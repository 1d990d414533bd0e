"""Conjunctive triple-pattern queries over an entity graph.

The query subset is basic graph patterns only: up to eight patterns whose
positions are constants (IRIs or typed literals) or ``?variables``.  Results
are set-semantics binding tables with a canonical row order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .core import Iri
from .eg import EntityGraph, Literal
from .exports import render_term

__all__ = ["BindingTable", "Query", "Variable", "run_query"]

MAX_PATTERNS = 8

_VARIABLE_RE = re.compile(r"\?[a-z][a-z0-9_]*\Z")


@dataclass(frozen=True)
class Variable:
    name: str  # includes the leading '?'

    def __post_init__(self) -> None:
        if not _VARIABLE_RE.match(self.name):
            raise ValueError(f"invalid variable name {self.name!r}")


Term = Union[Iri, Literal]
PatternTerm = Union[Variable, Iri, Literal]
Pattern = tuple[PatternTerm, PatternTerm, PatternTerm]


@dataclass(frozen=True)
class Query:
    patterns: tuple[Pattern, ...]

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValueError("query has no patterns")
        if len(self.patterns) > MAX_PATTERNS:
            raise ValueError(f"query exceeds {MAX_PATTERNS} patterns")

    def variables(self) -> list[str]:
        """Variable names in first-appearance order."""
        ordered: list[str] = []
        for pattern in self.patterns:
            for term in pattern:
                if isinstance(term, Variable) and term.name not in ordered:
                    ordered.append(term.name)
        return ordered


@dataclass(frozen=True)
class BindingTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[Term, ...], ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match column count")

    def holds(self) -> bool:
        """For variable-free queries: whether all patterns matched."""
        return bool(self.rows)


def _scan(
    eg: EntityGraph, pattern: Pattern
) -> tuple[list[str], list[tuple[Term, ...]]]:
    """Bindings of one pattern on its own.

    Constants and repeated variables compare by value (``==``, which runs
    in C for ``Iri`` and ``Literal``).  A constant predicate reads only its
    group of ``EntityGraph.by_predicate``, whose triples all carry it, in
    time linear in the group; a variable predicate reads every triple of
    the graph.  A constant the graph does not hold matches nothing.
    Returns the pattern's distinct variable names and, for each triple read
    that agrees with its constants and its repeated variables, the values
    of those variables in the same order.
    """
    predicate = pattern[1]
    if isinstance(predicate, Variable):
        matches = eg.triples
    else:
        matches = eg.by_predicate.get(predicate, ())
    names: list[str] = []
    slots: list[int] = []  # position of each name's first occurrence
    for position, term in enumerate(pattern):
        if not isinstance(term, Variable):
            if position != 1:  # the group already agrees on its predicate
                matches = [t for t in matches if t[position] == term]
        elif term.name in names:
            earlier = slots[names.index(term.name)]
            matches = [t for t in matches if t[position] == t[earlier]]
        else:
            names.append(term.name)
            slots.append(position)
    return names, [tuple([t[i] for i in slots]) for t in matches]


def run_query(eg: EntityGraph, query: Query) -> BindingTable:
    """Evaluate a conjunctive query; rows deduplicated and canonically sorted.

    Each pattern is matched on its own, comparing terms by value: a pattern
    with a constant predicate scans only that predicate's triples
    (``EntityGraph.by_predicate``, which the graph builds in one pass over
    its triples on its first such query and keeps), one with a variable
    predicate scans all of them.  A pattern that matches nothing, such as
    one with a constant the graph does not hold, gives the empty table at
    once.  The matches are hash-joined on the variables they share with the
    rows so far.  Patterns sharing a variable with those rows go before
    patterns sharing none, the one with the fewest matches first.  Cost is
    O(triples read by the scans + rows): the size of each constant
    predicate's group, and all triples for each variable predicate.

    A variable-free query yields a zero-column table with one row iff every
    pattern is a triple of the graph.
    """
    columns = tuple(query.variables())
    pending = []
    for pattern in query.patterns:
        names, matches = _scan(eg, pattern)
        if not matches:
            return BindingTable(columns, ())
        pending.append((names, matches))

    bound: list[str] = []  # the variables of each row, in join order
    rows: list[tuple[Term, ...]] = [()]
    while pending and rows:
        joined = [i for i, (names, _) in enumerate(pending)
                  if any(name in bound for name in names)]
        nearest = min(joined or range(len(pending)), key=lambda i: len(pending[i][1]))
        names, matches = pending.pop(nearest)
        shared = [i for i, name in enumerate(names) if name in bound]
        fresh = [i for i, name in enumerate(names) if name not in bound]
        table: dict[tuple[Term, ...], list[tuple[Term, ...]]] = {}
        for match in matches:
            key = tuple([match[i] for i in shared])
            table.setdefault(key, []).append(tuple([match[i] for i in fresh]))
        probe = [bound.index(names[i]) for i in shared]
        rows = [
            row + extension
            for row in rows
            for extension in table.get(tuple([row[i] for i in probe]), ())
        ]
        bound += [names[i] for i in fresh]

    order = [bound.index(name) for name in columns] if rows else []
    unique_rows = {tuple([row[i] for i in order]) for row in rows}
    ordered = sorted(unique_rows, key=lambda row: [render_term(t) for t in row])
    return BindingTable(columns, tuple(ordered))
