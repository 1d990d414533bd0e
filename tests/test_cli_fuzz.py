"""The README's command-line tour on shipped fixtures whose meaning a seeded
mutation changed while keeping them valid JSON or CSV: every command ends
with exit status 0, 1 or 2, and none raises."""

from __future__ import annotations

import csv
import io
import json
import random
import shlex
from pathlib import Path

import pytest

from facetforge.cli import main
from facetforge.fixtures import fixture_text

README = Path(__file__).resolve().parent.parent / "README.md"
FIXTURES = (
    "med.schedule.json", "ccc.catalogue.json", "toy.lexsem.json", "du.schema.json",
    "du.etg.json", "du.mapping.json", "books.csv", "people.csv", "orgs.csv", "places.csv",
)


def tour(fixtures: Path, scratch: Path) -> list[list[str]]:
    """The commands of the README's command-line tour, each without its
    leading ``facetforge``, reading *fixtures* and writing under *scratch*."""
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1]
    script = block.split("```", 1)[0].replace("\\\n", " ")
    commands = []
    for line in script.splitlines():
        words = shlex.split(line, comments=True)
        if words and words[0] == "facetforge":
            commands.append([
                word.replace("/tmp/", f"{scratch}/").replace("$FX", str(fixtures))
                for word in words[1:]
            ])
    return commands


def mutate_json(rng: random.Random, text: str) -> str:
    """One change of meaning: delete, duplicate or shuffle the items of a
    list, swap a string for another string of the document, flip a boolean
    or edit an integer."""
    document = json.loads(text)
    slots: list[tuple[object, object]] = []  # (container, key) of each value
    pending = [document]
    while pending:
        node = pending.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                pending.append(value)
    values = [node[key] for node, key in slots]
    lists = [value for value in values if isinstance(value, list) and value]
    strings = [(slot, value) for slot, value in zip(slots, values) if isinstance(value, str)]
    scalars = [slot for slot, value in zip(slots, values) if isinstance(value, (bool, int))]
    kind = rng.choice(["string"] + ["list"] * bool(lists) + ["scalar"] * bool(scalars))
    if kind == "list":
        items = rng.choice(lists)
        action = rng.choice(["delete", "duplicate", "shuffle"])
        if action == "delete":
            del items[rng.randrange(len(items))]
        elif action == "duplicate":
            items.insert(rng.randrange(len(items) + 1), rng.choice(items))
        else:
            rng.shuffle(items)
    elif kind == "string":
        (node, key), _ = rng.choice(strings)
        node[key] = rng.choice(strings)[1]
    else:
        node, key = rng.choice(scalars)
        value = node[key]
        if isinstance(value, bool):
            node[key] = not value
        else:
            node[key] = rng.choice([value + 1, value - 1, 0, -value, 10**6])
    return json.dumps(document)


def mutate_csv(rng: random.Random, text: str) -> str:
    """One change of meaning that keeps the table rectangular: drop,
    duplicate or shuffle data rows, or edit one cell."""
    header, *rows = csv.reader(io.StringIO(text))
    action = rng.choice(["drop", "duplicate", "shuffle", "edit"]) if rows else "duplicate"
    if action == "drop":
        del rows[rng.randrange(len(rows))]
    elif action == "duplicate":
        rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows) if rows else header)
    elif action == "shuffle":
        rng.shuffle(rows)
    else:
        row = rng.choice(rows)
        cells = [cell for other in rows for cell in other]
        row[rng.randrange(len(row))] = rng.choice(cells + ["", "x"])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def copy_fixtures(root: Path) -> Path:
    fixtures = root / "fixtures"
    fixtures.mkdir()
    for name in FIXTURES:
        (fixtures / name).write_text(fixture_text(name))
    return fixtures


def test_tour_on_the_shipped_fixtures_exits_0(tmp_path, capsys):
    commands = tour(copy_fixtures(tmp_path), tmp_path)
    assert [main(command) for command in commands] == [0] * 15


@pytest.mark.parametrize("seed", range(50))
def test_tour_on_a_mutated_fixture_exits_0_1_or_2(seed, tmp_path, capsys):
    rng = random.Random(seed)
    fixtures = copy_fixtures(tmp_path)
    for name in rng.sample(FIXTURES, rng.randint(1, 2)):
        mutate = mutate_csv if name.endswith(".csv") else mutate_json
        text = fixture_text(name)
        for _ in range(rng.randint(1, 3)):
            text = mutate(rng, text)
        (fixtures / name).write_text(text)
    statuses = [main(command) for command in tour(fixtures, tmp_path)]
    capsys.readouterr()
    assert len(statuses) == 15 and set(statuses) <= {0, 1, 2}, statuses
