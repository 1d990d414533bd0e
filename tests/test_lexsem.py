from __future__ import annotations

import json

import pytest

from facetforge.core import FormatError
from facetforge.fixtures import fixture_text
from facetforge.lexsem import (
    LexicalSemanticResource,
    Synset,
    hypernym_path,
    load_lexsem,
    resolve_sense,
)


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
