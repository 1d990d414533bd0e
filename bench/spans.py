"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent span, op id).  Spans are kept in flat
arrays while the run goes and written to a file once at the end.  Op ids are
``>= 0`` for timed ops, ``-1 - k`` for set-up pass ``k`` and ``CLOSE_OP`` for
the closing step of an op batch.

Only the traced run has spans, around two kinds of call: the program
functions the benchmark calls (an :class:`Api` built with a tracer) and,
while :func:`install` is in effect, the functions that one ``facetforge``
module imported from another, such as the ``mint_iri`` that ``eg`` imported
from ``core``.  Untraced runs call the program directly.
"""

from __future__ import annotations

import gzip
import importlib
import time
import types
from array import array
from pathlib import Path

CLOSE_OP = -1000
LAYERS = (
    "core", "schedule", "facet", "catalogue", "lexsem", "ontology", "etg", "eg",
    "exports", "query", "cli",
)


class Tracer:
    """Records spans while ``enabled``; ``current_op`` tags each new span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.enabled = False
        # Distinct results of core.mint_iri per op id, for the useful ratio.
        self.minted: dict[int, set[str]] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, record_result: bool = False):
        """``fn`` with a span named ``name`` around each call while enabled."""
        nid = self.name_id(name)
        names, parents, ops, starts, ends, stack = (
            self.name, self.parent, self.op, self.start, self.end, self.stack
        )
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf()
                stack.pop()
            if record_result:
                tracer.minted.setdefault(tracer.current_op, set()).add(result.value)
            return result

        traced.__wrapped__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.name)

    def self_times(self) -> array:
        """Each span's duration minus the time its direct children cover."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def write(self, path: Path) -> None:
        """Write every span as a gzipped TSV row, times in ns from the first."""
        origin = self.start[0] if len(self) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for index in range(len(self)):
                out.write(
                    f"{index}\t{self.parent[index]}\t{self.op[index]}\t"
                    f"{self.names[self.name[index]]}\t"
                    f"{round((self.start[index] - origin) * 1e9)}\t"
                    f"{round((self.end[index] - origin) * 1e9)}\n"
                )


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Api:
    """The program functions the benchmark calls, by their own names.

    With a tracer each one is wrapped in a span named ``<module>.<function>``.
    ``extra`` adds benchmark functions (spans named ``bench.<function>``).
    """

    def __init__(self, functions, tracer: Tracer | None = None, extra=()) -> None:
        for fn in functions:
            setattr(self, fn.__name__, tracer.wrap(span_name(fn), fn) if tracer is not None else fn)
        for fn in extra:
            bound = fn(self)
            name = f"bench.{bound.__name__}"
            setattr(self, bound.__name__, tracer.wrap(name, bound) if tracer is not None else bound)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every cross-module function import inside ``facetforge``.

    Returns what :func:`uninstall` needs to put the originals back.
    """
    patched: list[tuple[object, str, object]] = []

    def patch(owner, attribute: str, name: str, record_result: bool = False) -> None:
        original = getattr(owner, attribute)
        patched.append((owner, attribute, original))
        setattr(owner, attribute, tracer.wrap(name, original, record_result))

    for layer in LAYERS:
        module = importlib.import_module(f"facetforge.{layer}")
        for attribute, value in sorted(vars(module).items()):
            if (
                isinstance(value, types.FunctionType)
                and value.__module__.startswith("facetforge.")
                and value.__module__ != module.__name__
            ):
                patch(module, attribute, span_name(value), value.__name__ == "mint_iri")
    # Names reached through a module object rather than imported by name:
    # eg.snapshot calls exports.export_*, and cli resolves short names
    # through EntityGraph.terms.
    exports = importlib.import_module("facetforge.exports")
    eg = importlib.import_module("facetforge.eg")
    patch(exports, "export_ntriples", "exports.export_ntriples")
    patch(exports, "export_jsongraph", "exports.export_jsongraph")
    patch(eg.EntityGraph, "terms", "eg.terms")
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for owner, attribute, original in reversed(patched):
        setattr(owner, attribute, original)
