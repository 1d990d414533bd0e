"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes a ``random.Random`` (or a seed string) and returns plain
documents and tables, the same ones for the same seed.  Input sizes never
depend on the seed, only on the sizes passed in, so run-to-run differences
come from the program and the machine rather than from the inputs.  Each
generator also returns what it knows about its output (full notations,
injected faults, entity ids), which the output checks use instead of the
program's own answers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

BASE = "https://ex.org/du"
AT = "2024-01-01T00:00:00Z"
FORMULA = "[B],[P]:[E].[S]'[T?]"

_SYLLABLES = (
    "ba be bi bo bu da de di do du fa fe fi fo ga ge go ka ke ki ko ku la le li lo"
    " lu ma me mi mo mu na ne ni no nu ra re ri ro ru sa se si so su ta te ti to"
    " tu va ve vi vo za ze zi zo"
).split()
_NOTATION_ALPHABET = "0123456789ABCDEFGHJKMNPRSTUVWXYZ"
_FACETS = (
    ("P", ",", "ByAffectedPerson"),
    ("E", ":", "ByProblem"),
    ("S", ".", "BySpace"),
    ("T", "'", "ByTime"),
)
# Words the program treats specially (ETG labels, fixture lemmas); synthetic
# lemmas avoid them so that grounding and sense resolution stay predictable.
_RESERVED = {
    "entity", "person", "human", "organization", "organisation", "publisher",
    "publication", "book", "place",
}


def rng_for(seed: int, *parts: object) -> random.Random:
    """An independent, reproducible stream for one part of one workload."""
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def word(rng: random.Random, low: int = 2, high: int = 4) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(low, high)))


def unique_words(rng: random.Random, count: int, taken: set[str] | None = None) -> list[str]:
    taken = set(_RESERVED) | (taken or set())
    words: list[str] = []
    while len(words) < count:
        candidate = word(rng)
        if candidate not in taken:
            taken.add(candidate)
            words.append(candidate)
    return words


# ---------------------------------------------------------------------------
# Catalogue half


@dataclass
class ScheduleInput:
    document: str
    concepts: int
    notations: dict[str, list[str]]  # facet code -> full notations, stored order


def schedule_document(rng: random.Random, facets: int, fanout: int, depth: int) -> ScheduleInput:
    """A lint-clean schedule: ``facets`` categories of ``fanout``-ary trees.

    Sibling notations are distinct single characters, so every array is
    prefix-free, and labels and values are unique, so no rule fires.
    """
    serial = 0
    categories = []
    notations: dict[str, list[str]] = {}
    for code, indicator, characteristic in _FACETS[:facets]:
        concepts: list[dict] = []
        full: list[str] = []

        def add(parent: str | None, prefix: str, level: int) -> None:
            nonlocal serial
            segments = rng.sample(_NOTATION_ALPHABET, fanout)
            labels = unique_words(rng, fanout)
            for ordinal, (segment, label) in enumerate(zip(segments, labels)):
                serial += 1
                concept_id = f"{code.lower()}{serial}"
                raw = {
                    "id": concept_id,
                    "notation": segment,
                    "label": label.capitalize(),
                    "value": f"v{serial}",
                    "ordinal": ordinal,
                    "sought": rng.random() < 0.85,
                }
                if parent is not None:
                    raw["parent"] = parent
                concepts.append(raw)
                full.append(prefix + segment)
                if level < depth:
                    add(concept_id, prefix + segment, level + 1)

        add(None, "", 1)
        categories.append(
            {
                "code": code,
                "indicator": indicator,
                "characteristic": characteristic,
                "concepts": concepts,
            }
        )
        notations[code] = full
    document = {
        "id": "SYN",
        "base": {"id": "synthetic-base", "notation": "L", "label": "Medicine"},
        "succession": [c for _, _, c in _FACETS[:facets]],
        "stoplist": ["miscellaneous", "general"],
        "categories": categories,
    }
    return ScheduleInput(json.dumps(document), serial, notations)


CATALOGUE_CODE = json.dumps(
    {
        "id": "ccc-bench",
        "resource_types": {
            "Book": [
                {"key": "title", "required": True, "sought": True, "order": 1},
                {"key": "author", "required": True, "sought": True, "order": 2},
                {"key": "publisher", "required": True, "sought": False, "order": 3},
                {"key": "place", "required": False, "sought": False, "order": 4},
                {"key": "date", "required": True, "sought": False, "order": 5},
                {"key": "pages", "required": False, "sought": False, "order": 6},
            ]
        },
        "context_exemptions": [],
        "local_variations": [],
    }
)


@dataclass(frozen=True)
class CatalogueItem:
    assignments: tuple[tuple[str, str], ...]  # (facet code, full notation), formula order
    text: str  # the class number synthesis must produce
    imprint: tuple[tuple[str, str], ...]
    surname: str
    year: int
    accession: int


def catalogue_batch(
    rng: random.Random, schedule: ScheduleInput, broad: int, specific: int, uses: int,
    surnames: list[str],
) -> list[CatalogueItem]:
    """One cataloguing session of ``(broad + specific) * uses`` items.

    A broad subject takes top-level notations in the three required facets;
    a specific one takes depth-3 notations in all four, which costs about
    twice as much to resolve.  Each subject is catalogued ``uses`` times,
    with surnames from a small pool over five years, so call numbers collide
    and the accession-suffix rule runs.
    """
    indicators = {code: indicator for code, indicator, _ in _FACETS}
    depth = max(len(n) for n in schedule.notations["P"])
    subjects = []
    for kind, count in (("broad", broad), ("specific", specific)):
        codes, length = ("PES", 1) if kind == "broad" else ("PEST", depth)
        for _ in range(count):
            assignment = tuple(
                (code, rng.choice([n for n in schedule.notations[code] if len(n) == length]))
                for code in codes
            )
            text = "L" + "".join(indicators[code] + notation for code, notation in assignment)
            subjects.append((assignment, text))
    picks = subjects * uses
    rng.shuffle(picks)
    batch = []
    for accession, (assignment, text) in enumerate(picks, start=1):
        surname = rng.choice(surnames)
        year = rng.randint(1990, 1994)
        imprint = [
            ("title", " ".join(word(rng) for _ in range(rng.randint(2, 6))).capitalize()),
            ("author", f"{word(rng, 2, 3).capitalize()} {surname}"),
            ("publisher", f"{word(rng).capitalize()} Press"),
            ("date", str(year)),
        ]
        if rng.random() < 0.7:
            imprint.append(("place", word(rng).capitalize()))
        if rng.random() < 0.8:
            imprint.append(("pages", str(rng.randint(40, 900))))
        batch.append(
            CatalogueItem(assignment, text, tuple(imprint), surname, year, accession)
        )
    return batch


# ---------------------------------------------------------------------------
# Knowledge-graph half: set-up documents

_TOY_SYNSETS = [
    {"id": "en-entity-1", "lemmas": ["entity"], "gloss": "anything that exists"},
    {"id": "en-person-1", "lemmas": ["person", "human"], "genus": "en-entity-1",
     "differentia": ["animate", "self-aware"]},
    {"id": "en-organization-1", "lemmas": ["organization", "organisation"],
     "genus": "en-entity-1", "differentia": ["collective-membership"]},
    {"id": "en-publisher-1", "lemmas": ["publisher"], "genus": "en-organization-1",
     "differentia": ["issues-works"]},
    {"id": "en-publication-1", "lemmas": ["publication"], "genus": "en-entity-1",
     "differentia": ["issued-content"]},
    {"id": "en-book-1", "lemmas": ["book"], "genus": "en-publication-1",
     "differentia": ["bound-pages"]},
    {"id": "en-place-1", "lemmas": ["place"], "genus": "en-entity-1",
     "differentia": ["spatial-extent"]},
]

ETG_DOCUMENT = json.dumps(
    {
        "id": "du-core",
        "types": [
            {"id": "Entity", "label": "Entity", "differentiating": []},
            {"id": "Person", "label": "Person", "parent": "Entity", "differentiating": ["animate"]},
            {"id": "Organization", "label": "Organization", "parent": "Entity",
             "differentiating": ["collective-membership"]},
            {"id": "Publication", "label": "Publication", "parent": "Entity",
             "differentiating": ["issued-content"]},
            {"id": "Place", "label": "Place", "parent": "Entity",
             "differentiating": ["spatial-extent"]},
        ],
        "data_properties": [
            {"name": "name", "domain": "Entity", "datatype": "string", "identifying": True},
            {"name": "title", "domain": "Publication", "datatype": "string"},
            {"name": "datePublished", "domain": "Publication", "datatype": "date"},
            {"name": "numberOfPages", "domain": "Publication", "datatype": "integer"},
        ],
        "object_properties": [
            {"name": "author", "domain": "Publication", "range": "Person"},
            {"name": "publisher", "domain": "Publication", "range": "Organization"},
            {"name": "headquarteredIn", "domain": "Organization", "range": "Place"},
            {"name": "foundedBy", "domain": "Organization", "range": "Person"},
        ],
    }
)

GROUNDING_MAP = {"en-book-1": "Publication"}


def mapping_document(books_policy: str, orgs_policy: str) -> str:
    """The book/people/orgs/places mapping with the given dangling policies."""
    return json.dumps(
        {
            "datasets": [
                {
                    "id": "books", "type": "Publication", "id_column": "id",
                    "data_maps": [
                        {"column": "title", "property": "title", "datatype": "string"},
                        {"column": "date", "property": "datePublished", "datatype": "date"},
                        {"column": "pages", "property": "numberOfPages", "datatype": "integer"},
                    ],
                    "link_maps": [
                        {"column": "author", "property": "author", "target": "people"},
                        {"column": "publisher", "property": "publisher", "target": "orgs"},
                    ],
                    "dangling_policy": books_policy,
                },
                {
                    "id": "people", "type": "Person", "id_column": "id",
                    "data_maps": [{"column": "name", "property": "name", "datatype": "string"}],
                    "dangling_policy": "error",
                },
                {
                    "id": "orgs", "type": "Organization", "id_column": "id",
                    "data_maps": [{"column": "name", "property": "name", "datatype": "string"}],
                    "link_maps": [
                        {"column": "hq", "property": "headquarteredIn", "target": "places"},
                        {"column": "founder", "property": "foundedBy", "target": "people"},
                    ],
                    "dangling_policy": orgs_policy,
                },
                {
                    "id": "places", "type": "Place", "id_column": "id",
                    "data_maps": [{"column": "name", "property": "name", "datatype": "string"}],
                    "dangling_policy": "error",
                },
            ]
        }
    )


@dataclass
class LexiconInput:
    lexsem: str
    schema: str
    synsets: int
    unresolved: int  # schema classes that resolve to no sense (LO1 each)


def lexicon_documents(rng: random.Random, synsets: int, classes: int, unresolved: int) -> LexiconInput:
    """A single-language lexicon of ``synsets`` synsets with the toy synsets
    embedded, and a dataset schema whose synthetic class names are lemmas of
    distinct synthetic synsets (plus ``unresolved`` names that match none)."""
    rows = [dict(s) for s in _TOY_SYNSETS]
    ids = [s["id"] for s in rows]
    lemmas = unique_words(rng, synsets - len(rows))
    for index, lemma in enumerate(lemmas):
        synset_id = f"en-s{index}"
        genus = ids[rng.randrange(len(ids))]  # random recursive tree, depth ~ ln(n)
        rows.append(
            {"id": synset_id, "lemmas": [lemma], "gloss": f"gloss {index}",
             "genus": genus, "differentia": [f"d{index}"]}
        )
        ids.append(synset_id)
    lexsem = json.dumps(
        {"id": "bench-lexsem", "languages": {"en": {"synsets": rows}},
         "catalogue": [{"language": "en", "domain": "general", "root": "en-entity-1"}]}
    )

    named = [
        {"name": "Book", "attributes": [
            {"name": "title", "datatype": "string"},
            {"name": "date", "datatype": "date"},
            {"name": "pages", "datatype": "integer"},
            {"name": "author", "datatype": "reference", "target": "Person"},
            {"name": "publisher", "datatype": "reference", "target": "Organization"},
        ]},
        {"name": "Person", "attributes": [{"name": "name", "datatype": "string"}]},
        {"name": "Organization", "attributes": [{"name": "name", "datatype": "string"}]},
        {"name": "Place", "attributes": [{"name": "name", "datatype": "string"}]},
    ]
    synthetic = rng.sample(lemmas, classes - len(named) - unresolved)
    for lemma in synthetic:
        named.append({"name": lemma.capitalize(), "attributes": [
            {"name": "label", "datatype": "string"},
            {"name": "source", "datatype": "reference", "target": "Book"},
        ]})
    for index in range(unresolved):
        named.append({"name": f"Unlisted{index}x", "attributes": []})
    return LexiconInput(lexsem, json.dumps({"classes": named}), synsets, unresolved)


# ---------------------------------------------------------------------------
# Knowledge-graph half: tables and graphs


@dataclass
class GraphBatch:
    tables: dict[str, list[dict[str, str]]]
    rows: int
    bad_cells: int  # IG1 expected
    dangling_hq: int  # LK2 expected (orgs skip)
    stubs: int  # missing authors, distinct: one LK3 and one stub entity each (books stub)


def graph_batch(
    rng: random.Random, books: int, people: int, orgs: int, places: int, faults: bool
) -> GraphBatch:
    """Book/people/orgs/places tables in the shape of the shipped CSV files.

    With ``faults`` a few per cent of cells fail their cast and a few per
    cent of links point at rows that do not exist.
    """
    place_rows = [{"id": f"pl{i}", "name": word(rng).capitalize()} for i in range(places)]
    people_rows = [
        {"id": f"p{i}", "name": f"{word(rng, 2, 3).capitalize()} {word(rng).capitalize()}"}
        for i in range(people)
    ]
    dangling_hq = 0
    org_rows = []
    for i in range(orgs):
        hq = f"pl{rng.randrange(places)}"
        if faults and rng.random() < 0.05:
            hq = f"gone{i}"
            dangling_hq += 1
        org_rows.append(
            {"id": f"o{i}", "name": f"{word(rng).capitalize()} Press", "hq": hq,
             "founder": f"p{rng.randrange(people)}"}
        )
    bad_cells = 0
    stubs: set[str] = set()
    book_rows = []
    for i in range(books):
        year = rng.randint(1900, 2023)
        date = str(year) if rng.random() < 0.5 else f"{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        pages = str(rng.randint(40, 900))
        author = f"p{rng.randrange(people)}"
        if faults:
            if rng.random() < 0.02:
                date = f"{year // 10}x"
                bad_cells += 1
            if rng.random() < 0.02:
                pages = "n/a"
                bad_cells += 1
            if rng.random() < 0.03:
                author = f"anon{rng.randrange(books)}"
                stubs.add(author)
        book_rows.append(
            {"id": f"b{i}", "title": " ".join(word(rng) for _ in range(rng.randint(2, 6))).capitalize(),
             "date": date, "pages": pages, "author": author,
             "publisher": f"o{rng.randrange(orgs)}"}
        )
    tables = {"books": book_rows, "people": people_rows, "orgs": org_rows, "places": place_rows}
    return GraphBatch(
        tables, books + people + orgs + places, bad_cells, dangling_hq, len(stubs)
    )


@dataclass
class QueryGraph:
    document: str
    ids: dict[str, list[str]]  # entity type -> row ids
    links: dict[str, list[tuple[str, str]]]  # property -> (subject id, object id) pairs


_TYPES = {"books": "Publication", "people": "Person", "orgs": "Organization", "places": "Place"}


def query_graph_document(rng: random.Random, books: int, people: int, orgs: int, places: int) -> QueryGraph:
    """An entity-graph JSON document in the exporter's format, written here
    directly so that the query workload's input does not come from the
    program under test.

    Links are dealt round-robin over seeded permutations, so every person
    wrote the same number of books, every org published the same number and
    every place hosts the same number of orgs: each query shape then costs
    the same whichever constants the seed picks.
    """
    def deal(count: int, targets: int, prefix: str) -> list[str]:
        order = list(range(targets))
        rng.shuffle(order)
        return [f"{prefix}{order[i % targets]}" for i in range(count)]

    authors, publishers, hqs = deal(books, people, "p"), deal(books, orgs, "o"), deal(orgs, places, "pl")
    tables = {
        "books": [
            {"id": f"b{i}", "title": " ".join(word(rng) for _ in range(rng.randint(2, 6))).capitalize(),
             "date": f"{rng.randint(1900, 2023)}-01-01", "pages": str(rng.randint(40, 900)),
             "author": authors[i], "publisher": publishers[i]}
            for i in range(books)
        ],
        "people": [
            {"id": f"p{i}", "name": f"{word(rng, 2, 3).capitalize()} {word(rng).capitalize()}"}
            for i in range(people)
        ],
        "orgs": [
            {"id": f"o{i}", "name": f"{word(rng).capitalize()} Press", "hq": hqs[i],
             "founder": f"p{rng.randrange(people)}"}
            for i in range(orgs)
        ],
        "places": [{"id": f"pl{i}", "name": word(rng).capitalize()} for i in range(places)],
    }
    entities = []
    links = []
    link_ids: dict[str, list[tuple[str, str]]] = {}
    ids: dict[str, list[str]] = {}
    triples = 0
    value_columns = {
        "books": [("title", "title", "string"), ("date", "datePublished", "date"),
                  ("pages", "numberOfPages", "integer")],
        "people": [("name", "name", "string")],
        "orgs": [("name", "name", "string")],
        "places": [("name", "name", "string")],
    }
    link_columns = {
        "books": [("author", "author", "people"), ("publisher", "publisher", "orgs")],
        "orgs": [("hq", "headquarteredIn", "places"), ("founder", "foundedBy", "people")],
    }
    for dataset, rows in tables.items():
        entity_type = _TYPES[dataset]
        ids[entity_type] = [row["id"] for row in rows]
        for row in rows:
            iri = f"{BASE}/{entity_type}/{row['id']}"
            values = []
            for column, prop, datatype in value_columns[dataset]:
                values.append({"property": prop, "datatype": datatype, "value": row[column]})
            values.sort(key=lambda v: (v["property"], v["datatype"], v["value"]))
            entities.append({"iri": iri, "type": entity_type, "values": values})
            triples += 1 + len(values)
            for column, prop, target in link_columns.get(dataset, []):
                target_iri = f"{BASE}/{_TYPES[target]}/{row[column]}"
                links.append({"subject": iri, "property": prop, "object": target_iri})
                link_ids.setdefault(prop, []).append((row["id"], row[column]))
                triples += 1
    entities.sort(key=lambda e: e["iri"])
    links.sort(key=lambda l: (l["subject"], l["property"], l["object"]))
    document = {
        "metadata": {
            "iri": f"{BASE}/eg/{AT.replace(':', '-')}",
            "timestamp": AT,
            "sources": list(tables),
            "counts": {"entities": len(entities), "triples": triples},
        },
        "entities": entities,
        "links": links,
    }
    return QueryGraph(json.dumps(document, separators=(",", ":")), ids, link_ids)
