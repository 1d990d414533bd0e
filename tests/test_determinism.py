"""The command-line pipeline reproduces byte for byte across interpreter runs.

Set and dict iteration order of strings depends on ``PYTHONHASHSEED``, so a
build or a query that leaked it would differ between two processes with
different seeds while every in-process test still passed.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import facetforge
from facetforge.fixtures import fixture_path

SRC = Path(facetforge.__file__).resolve().parents[1]

# Runs each argv of argv[1] (a JSON list) through the CLI in one process,
# following each step's payload on stdout with its exit status.
DRIVER = """
import json, sys
from facetforge.cli import main
for argv in json.loads(sys.argv[1]):
    status = main(argv)
    sys.stdout.flush()
    sys.stdout.buffer.write(f"-- exit {status}\\n".encode())
    sys.stdout.buffer.flush()
"""


def fx(name: str) -> str:
    return str(fixture_path(name))


STEPS = [
    ["ontology", "build", "--lexsem", fx("toy.lexsem.json"), "--language", "en",
     "--schema", fx("du.schema.json"), "--out", "ontology.json"],
    ["eg", "build", "--ontology", "ontology.json", "--etg", fx("du.etg.json"),
     "--map", "en-book-1=Publication", "--spec", fx("du.mapping.json"),
     "--data", f"books={fx('books.csv')}", "--data", f"people={fx('people.csv')}",
     "--data", f"orgs={fx('orgs.csv')}", "--data", f"places={fx('places.csv')}",
     "--base", "https://ex.org/du", "--at", "2024-01-01T00:00:00Z", "--out", "eg.json"],
    ["eg", "query", "eg.json", "?o <type> <Organization> . ?o <foundedBy> ?p . ?b <publisher> ?o ."],
    ["eg", "query", "eg.json", "<b1> <publisher> <harper-row> ."],
    ["eg", "export", "--format", "nt", "eg.json"],
    ["eg", "export", "--format", "nt", "eg.json", "--out", "eg.nt"],
]


def run_pipeline(
    directory: Path, hash_seed: str, steps: list[list[str]] = STEPS
) -> tuple[bytes, bytes, dict[str, bytes]]:
    directory.mkdir()
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", DRIVER, json.dumps(steps)],
        cwd=directory, env=env, capture_output=True, timeout=120, check=True,
    )
    files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    return done.stdout, done.stderr, files


def test_pipeline_is_byte_identical_across_hash_seeds(tmp_path):
    first = run_pipeline(tmp_path / "seed-0", "0")
    second = run_pipeline(tmp_path / "seed-12345", "12345")
    assert first == second
    stdout, _, files = first
    assert sorted(files) == ["eg.json", "eg.nt", "ontology.json"]
    assert stdout.count(b"-- exit 0\n") == len(STEPS)
    assert b"\ntrue\n-- exit 0\n" in stdout
    assert b"?o\t?p\t?b\n<https://ex.org/du/Organization/harper-row>" in stdout
    assert files["eg.nt"] in stdout


def test_benchmark_graph_batch_is_byte_identical_across_hash_seeds(tmp_path, gen):
    """A small seeded ``graph-build`` batch of the benchmark, with IG1, LK2
    and LK3 faults under its stub and skip policies, read from CSV files:
    the build's sets of ids, stubs and dangling links must not leak their
    iteration order into the graph, its exports or the findings."""
    batch = gen.graph_batch(gen.rng_for(36, "batch"), 40, 15, 8, 5, faults=True)
    assert (batch.bad_cells, batch.dangling_hq, batch.stubs) == (3, 2, 2)
    lexicon = gen.lexicon_documents(gen.rng_for(36, "lexicon"), 300, 12, 2)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    documents = {
        "lexsem.json": lexicon.lexsem, "schema.json": lexicon.schema,
        "etg.json": gen.ETG_DOCUMENT, "spec.json": gen.mapping_document("stub", "skip"),
    }
    for name, text in documents.items():
        (inputs / name).write_text(text)
    data = []
    for name, rows in batch.tables.items():
        with open(inputs / f"{name}.csv", "w", newline="") as out:
            writer = csv.DictWriter(out, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        data += ["--data", f"{name}={inputs / name}.csv"]
    steps = [
        ["ontology", "build", "--lexsem", str(inputs / "lexsem.json"), "--language", "en",
         "--schema", str(inputs / "schema.json"), "--out", "ontology.json"],
        ["eg", "build", "--ontology", "ontology.json", "--etg", str(inputs / "etg.json"),
         *[arg for pair in gen.GROUNDING_MAP.items() for arg in ("--map", "=".join(pair))],
         "--spec", str(inputs / "spec.json"), *data,
         "--base", gen.BASE, "--at", gen.AT, "--out", "eg.json"],
        ["eg", "export", "--format", "nt", "eg.json", "--out", "eg.nt"],
        ["eg", "export", "--format", "fca", "eg.json", "--out", "eg.csv"],
    ]
    first = run_pipeline(tmp_path / "seed-1", "1", steps)
    second = run_pipeline(tmp_path / "seed-999", "999", steps)
    assert first == second
    stdout, stderr, files = first
    assert sorted(files) == ["eg.csv", "eg.json", "eg.nt", "ontology.json"]
    assert stdout.count(b"-- exit 0\n") == len(steps)
    codes = [line.split()[1] for line in stderr.decode().splitlines() if line.startswith("warning")]
    assert {"IG1", "LK2", "LK3"} <= set(codes)


def test_benchmark_catalogue_session_is_byte_identical_across_hash_seeds(tmp_path, gen):
    """The schedule and catalogue half on a small seeded ``catalogue``
    session of the benchmark: schedule lint, then classify, chain-index and
    record build per item, then record lint over the records, whose CC1
    findings come from sets of field keys."""
    schedule = gen.schedule_document(gen.rng_for(36, "schedule"), 4, 3, 3)
    surnames = [w.capitalize() for w in gen.unique_words(gen.rng_for(36, "surnames"), 3)]
    items = gen.catalogue_batch(gen.rng_for(36, "batch"), schedule, 2, 3, 2, surnames)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "schedule.json").write_text(schedule.document)
    (inputs / "code.json").write_text(gen.CATALOGUE_CODE)
    number_args = ["--schedule", str(inputs / "schedule.json"), "--formula", gen.FORMULA]
    steps = [["schedule", "lint", str(inputs / "schedule.json")]]
    for item in items:
        steps += [
            ["classify", *number_args,
             *[arg for pair in item.assignments for arg in ("--facet", "=".join(pair))]],
            ["chain-index", *number_args, item.text],
            ["record", "build", "--code", str(inputs / "code.json"), *number_args,
             "--type", "Book", "--class-number", item.text,
             *[arg for pair in item.imprint for arg in ("--field", "=".join(pair))],
             "--surname", item.surname, "--year", str(item.year),
             "--accession", str(item.accession), "--out", f"record-{item.accession:02}.json"],
        ]
    records = [f"record-{item.accession:02}.json" for item in items]
    steps.append(["record", "lint", "--code", str(inputs / "code.json"), *records])
    first = run_pipeline(tmp_path / "seed-2", "2", steps)
    second = run_pipeline(tmp_path / "seed-777", "777", steps)
    assert first == second
    stdout, stderr, files = first
    assert sorted(files) == sorted(records)
    assert stdout.count(b"-- exit 0\n") == len(steps) - 1
    assert stdout.endswith(b"-- exit 1\n")
    assert all(f"\n{item.text}\n-- exit 0\n".encode() in stdout for item in items)
    codes = {line.split()[1] for line in stderr.decode().splitlines()}
    assert codes == {"CC1"}
