from __future__ import annotations

import copy
import gc
import json
import pickle
import random
import sys
from collections import Counter

import pytest

from facetforge import lexsem as lexsem_module
from facetforge.core import _COLUMN_TESTS, Fields, FormatError
from facetforge.fixtures import fixture_text
from facetforge.lexsem import (
    LexicalSemanticResource,
    Synset,
    hypernym_path,
    load_lexsem,
    resolve_sense,
)
from facetforge.ontology import build_lightweight_ontology, load_dataset_schema
from helpers import LEXSEM_FAULTS, oracle_load_lexsem, random_lexsem_document


def lexsem_document(**overrides):
    data = json.loads(fixture_text("toy.lexsem.json"))
    data.update(overrides)
    return data


class TestLoad:
    def test_fixture_loads(self, lexsem):
        assert lexsem.id == "toy-lexsem"
        assert set(lexsem.hierarchies) == {"en"}
        assert lexsem.root_of("en").id == "en-entity-1"
        assert lexsem.catalogue[0].domain == "general"

    def test_cycle_reported_with_members(self):
        data = lexsem_document()
        synsets = data["languages"]["en"]["synsets"]
        data["languages"]["en"]["synsets"] = synsets + [
            {"id": "en-a", "lemmas": ["a"], "genus": "en-b", "differentia": ["x"]},
            {"id": "en-b", "lemmas": ["b"], "genus": "en-a", "differentia": ["y"]},
        ]
        with pytest.raises(FormatError, match="cycle {en-a, en-b}"):
            load_lexsem(json.dumps(data))

    def test_dangling_genus_rejected(self):
        data = lexsem_document()
        data["languages"]["en"]["synsets"][1]["genus"] = "en-missing"
        with pytest.raises(FormatError, match="dangling genus"):
            load_lexsem(json.dumps(data))

    def test_duplicate_synset_id_rejected(self):
        data = lexsem_document()
        data["languages"]["en"]["synsets"].append(
            {"id": "en-entity-1", "lemmas": ["thing"]}
        )
        with pytest.raises(FormatError, match="duplicate synset id"):
            load_lexsem(json.dumps(data))

    def test_single_root_only_file_is_valid(self):
        data = lexsem_document()
        data["languages"] = {
            "en": {"synsets": [{"id": "en-entity-1", "lemmas": ["entity"]}]}
        }
        data["catalogue"] = []
        loaded = load_lexsem(json.dumps(data))
        assert loaded.root_of("en").id == "en-entity-1"

    def test_two_roots_rejected(self):
        data = lexsem_document()
        data["languages"]["en"]["synsets"].append({"id": "en-other-root", "lemmas": ["other"]})
        with pytest.raises(FormatError, match="exactly one root"):
            load_lexsem(json.dumps(data))

    def test_nonroot_needs_differentia(self):
        data = lexsem_document()
        data["languages"]["en"]["synsets"][1]["differentia"] = []
        with pytest.raises(FormatError, match="empty differentia"):
            load_lexsem(json.dumps(data))


class TestResolveSense:
    def test_first_sense_by_smallest_id(self, lexsem):
        assert resolve_sense(lexsem, "organization", "en").id == "en-organization-1"

    def test_lookup_is_case_folded(self, lexsem):
        assert resolve_sense(lexsem, "ORGANIZATION", "en").id == "en-organization-1"

    def test_unknown_lemma_rejected(self, lexsem):
        with pytest.raises(ValueError, match="not found"):
            resolve_sense(lexsem, "zzz", "en")

    def test_unknown_language_rejected(self, lexsem):
        with pytest.raises(ValueError, match="language 'xx'"):
            resolve_sense(lexsem, "entity", "xx")


class TestHypernymPath:
    def test_chain_to_root(self, lexsem):
        path = hypernym_path(lexsem, "en-publisher-1")
        assert [s.id for s in path] == ["en-publisher-1", "en-organization-1", "en-entity-1"]

    def test_root_path_is_singleton(self, lexsem):
        assert [s.id for s in hypernym_path(lexsem, "en-entity-1")] == ["en-entity-1"]

    def test_unknown_synset_rejected(self, lexsem):
        with pytest.raises(ValueError, match="unknown synset"):
            hypernym_path(lexsem, "en-nope-1")

    @staticmethod
    def built(genera):
        """A directly built resource, which no load checked."""
        synsets = {
            key: Synset(key, "en", (key,), genus=genus, differentia=("d",) if genus else ())
            for key, genus in genera.items()
        }
        return LexicalSemanticResource("built", {"en": synsets})

    def test_genus_cycle_rejected(self):
        resource = self.built({"root": None, "a": "b", "b": "c", "c": "b"})
        with pytest.raises(ValueError) as raised:
            hypernym_path(resource, "a")
        assert str(raised.value) == "language en: genus chain of synset a has a cycle"
        with pytest.raises(ValueError, match="synset c has a cycle"):
            hypernym_path(resource, "c")

    def test_dangling_genus_rejected(self):
        resource = self.built({"root": None, "a": "b", "b": "gone"})
        with pytest.raises(ValueError) as raised:
            hypernym_path(resource, "a")
        assert str(raised.value) == "language en: synset b has dangling genus 'gone'"

    def test_differentia_strictly_grow_along_paths(self, lexsem):
        for synsets in lexsem.hierarchies.values():
            for synset in synsets.values():
                path = hypernym_path(lexsem, synset.id)
                inherited: set[str] = set()
                for step in reversed(path):  # root first
                    if step.genus is not None:
                        assert set(step.differentia) - inherited, step.id
                    inherited |= set(step.differentia)


# ---------------------------------------------------------------------------
# ``load_lexsem`` against the loader that read one synset at a time


def outcome(load, document: str) -> tuple:
    """What *load* makes of *document*: its resource, with each language's
    synsets in stored order and their types, or its error's text."""
    try:
        resource = load(document)
    except FormatError as exc:
        return "refused", str(exc)
    return "loaded", resource, [
        (tag, [*synsets.items()], {*map(type, synsets.values())})
        for tag, synsets in resource.hierarchies.items()
    ]


def test_documents_load_and_fail_as_the_oracle_loads_them():
    seen = Counter()
    for seed in range(600):
        rng = random.Random(seed)
        document = random_lexsem_document(rng, rng.choice([0, 0, 1, 1, 2]))
        result = outcome(load_lexsem, document)
        assert result == outcome(oracle_load_lexsem, document), seed
        seen[result[0]] += 1
    assert seen["refused"] >= 150 and seen["loaded"] >= 200, seen


@pytest.mark.parametrize("fault", LEXSEM_FAULTS)
def test_each_seeded_fault_is_refused_as_the_oracle_refuses_it(fault):
    """What the bulk checks let through, the cycle check or the synset by
    synset read that follows them must refuse."""
    refused = 0
    for seed in range(60):
        document = random_lexsem_document(random.Random(seed), 1, [fault])
        result = outcome(load_lexsem, document)
        assert result == outcome(oracle_load_lexsem, document), seed
        refused += result[0] == "refused"
    assert refused >= 20, refused


def test_a_clean_lexicon_is_read_without_a_per_synset_fields_read(monkeypatch):
    """A silent fall-back to reading each synset on its own fails here."""
    reads = Counter()
    read = Fields.read

    def counting(self, raw, where):
        reads["synset" if self is lexsem_module._SYNSET else "other"] += 1
        return read(self, raw, where)

    monkeypatch.setattr(Fields, "read", counting)
    loaded = 0
    for seed in range(100):
        document = random_lexsem_document(random.Random(seed))
        reads.clear()
        resource = oracle_load_lexsem(document)
        reads.clear()
        assert load_lexsem(document) == resource
        assert reads["synset"] == 0, seed
        loaded += sum(map(len, resource.hierarchies.values())) > 0
    assert loaded >= 80


def test_the_fixture_gives_the_oracle_resource_and_ontology():
    document = fixture_text("toy.lexsem.json")
    assert outcome(load_lexsem, document) == outcome(oracle_load_lexsem, document)
    schema = load_dataset_schema(fixture_text("du.schema.json"))
    assert build_lightweight_ontology(load_lexsem(document), "en", schema) == (
        build_lightweight_ontology(oracle_load_lexsem(document), "en", schema)
    )


def test_the_load_runs_with_the_collector_paused_and_gives_it_back(monkeypatch):
    """The loader turns the collector off for its run only, also when it
    raises, and leaves it off if it was off."""
    read = lexsem_module._read_synsets
    during = []

    def watched(raws, tag):
        during.append(gc.isenabled())
        return read(raws, tag)

    monkeypatch.setattr(lexsem_module, "_read_synsets", watched)
    bad = json.loads(fixture_text("toy.lexsem.json"))
    bad["languages"]["en"]["synsets"][0]["lemmas"] = []
    try:
        for was_on in (True, False):
            (gc.enable if was_on else gc.disable)()
            load_lexsem(fixture_text("toy.lexsem.json"))
            assert gc.isenabled() is was_on
            with pytest.raises(FormatError):
                load_lexsem(json.dumps(bad))
            assert gc.isenabled() is was_on
    finally:
        gc.enable()
    assert during and not any(during)


def test_a_non_string_lemma_is_found_inside_every_list():
    """The ``strings`` column test reads the cells of every list in one pass."""
    strings = _COLUMN_TESTS["strings"]
    assert strings([]) and strings([[], ()]) and strings([["a", "b"], (), ["c"]])
    for bad in (5, None, ["a"], b"a", True):
        assert not strings([["a"], ["b", bad]]) and not strings([[bad], []])
    table = Fields(("lemmas", "strings"), ("extra", "strings", ()))
    assert table.columns([{"lemmas": ["a"]}, {"lemmas": [], "extra": ["b"]}], "x") == [
        [["a"], []], [(), ["b"]]
    ]
    with pytest.raises(FormatError, match=r"x: 'extra' must be a list of strings"):
        table.columns([{"lemmas": ["a"]}, {"lemmas": ["b"], "extra": ["c", 1]}], "x")


class TestSynsetContract:
    """``Synset`` is a validated named tuple like ``Concept``: equal and
    hashed like the plain tuple of its fields, checked however it is made."""

    SYNSET = Synset("en-book-1", "en", ("book", "volume"), "a text", "en-entity-1", ("bound",))
    PLAIN = ("en-book-1", "en", ("book", "volume"), "a text", "en-entity-1", ("bound",))

    def test_equal_and_hash_like_the_plain_tuple(self):
        assert Synset._fields == ("id", "language", "lemmas", "gloss", "genus", "differentia")
        assert self.SYNSET == self.PLAIN and hash(self.SYNSET) == hash(self.PLAIN)
        assert tuple(Synset("r", "en", ("root",)))[3:] == ("", None, ())
        assert Synset.__slots__ == () and not hasattr(self.SYNSET, "__dict__")
        with pytest.raises(AttributeError):
            self.SYNSET.genus = None

    def test_repr_is_what_the_dataclass_printed(self):
        assert repr(self.SYNSET) == (
            "Synset(id='en-book-1', language='en', lemmas=('book', 'volume'), gloss='a text',"
            " genus='en-entity-1', differentia=('bound',))"
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Synset("x", "en", ()),
            lambda: Synset(id="x", language="en", lemmas=[]),
            lambda: Synset._make(["x", "en", ""]),
            lambda: TestSynsetContract.SYNSET._replace(lemmas=()),
        ],
    )
    def test_every_construction_path_checks(self, make):
        with pytest.raises(ValueError, match="lemma list is empty"):
            make()

    def test_replace_copies_and_pickles_check_and_give_back_equal_synsets(self):
        moved = self.SYNSET._replace(genus=None)
        assert type(moved) is Synset and moved.genus is None
        forged = tuple.__new__(Synset, ("x", "en", (), "", None, ()))
        rebuilds = [copy.copy, copy.deepcopy] + [
            lambda value, protocol=protocol: pickle.loads(pickle.dumps(value, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for rebuild in rebuilds:
            again = rebuild(self.SYNSET)
            assert again == self.SYNSET and type(again) is Synset
            with pytest.raises(ValueError, match="lemma list is empty"):
                rebuild(forged)

    @pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in 3.13")
    def test_copy_replace_checks(self):
        assert copy.replace(self.SYNSET, gloss="").gloss == ""
        with pytest.raises(ValueError, match="lemma list is empty"):
            copy.replace(self.SYNSET, lemmas=())

