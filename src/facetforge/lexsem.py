"""WordNet-like lexical-semantic hierarchies of word senses.

Each language holds a single-rooted hierarchy of synsets linked by genus
(hypernym) references; every non-root synset records the differentia that
set it apart from its genus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping

from .core import Fields, FormatError, parent_cycles, parse_json

__all__ = [
    "CatalogueEntry",
    "LexicalSemanticResource",
    "Synset",
    "hypernym_path",
    "load_lexsem",
    "resolve_sense",
]


@dataclass(frozen=True)
class Synset:
    id: str
    language: str
    lemmas: tuple[str, ...]
    gloss: str = ""
    genus: str | None = None
    differentia: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.lemmas:
            raise ValueError(f"synset {self.id}: lemma list is empty")


@dataclass(frozen=True)
class CatalogueEntry:
    language: str
    domain: str
    root: str


@dataclass(frozen=True)
class LexicalSemanticResource:
    """Per-language synset hierarchies, indexed once when built.

    ``_senses`` maps each language's lemmas to the synset with the smallest
    id that lists them, and ``_roots`` holds each language's genus-less
    synsets.  The index takes no part in ``==`` or ``repr``; it reflects the
    hierarchies as passed in, which are not to be changed afterwards.
    """

    id: str
    hierarchies: Mapping[str, Mapping[str, Synset]]
    catalogue: tuple[CatalogueEntry, ...] = ()
    _senses: dict[str, dict[str, Synset]] = field(init=False, repr=False, compare=False)
    _roots: dict[str, tuple[Synset, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        senses: dict[str, dict[str, Synset]] = {}
        roots: dict[str, tuple[Synset, ...]] = {}
        for tag, synsets in self.hierarchies.items():
            first: dict[str, Synset] = {}
            for synset in synsets.values():
                for lemma in synset.lemmas:
                    held = first.get(lemma)
                    if held is None or synset.id < held.id:
                        first[lemma] = synset
            senses[tag] = first
            roots[tag] = tuple(s for s in synsets.values() if s.genus is None)
        object.__setattr__(self, "_senses", senses)
        object.__setattr__(self, "_roots", roots)

    def language(self, tag: str) -> Mapping[str, Synset]:
        if tag not in self.hierarchies:
            raise ValueError(f"resource {self.id}: language {tag!r} not present")
        return self.hierarchies[tag]

    def root_of(self, tag: str) -> Synset:
        self.language(tag)
        roots = self._roots[tag]
        if len(roots) != 1:
            raise ValueError(f"language {tag!r} has {len(roots)} roots")
        return roots[0]


_RESOURCE = Fields(("id", "identifier"), ("languages", "object", {}), ("catalogue", "objects", ()))
_LANGUAGE = Fields(("synsets", "objects", ()))
_SYNSET = Fields(
    ("id", "identifier"), ("lemmas", "strings"), ("gloss", "string", ""), ("genus", "string", None),
    ("differentia", "strings", ()),
)
_CATALOGUE = Fields(("language", "string"), ("domain", "string"), ("root", "string"))


def load_lexsem(document: str | bytes) -> LexicalSemanticResource:
    """Load a lexical-semantic resource, verifying acyclicity per language."""
    resource_id, languages, catalogue_raw = _RESOURCE.read(
        parse_json(document, "lexsem"), "lexsem"
    )
    hierarchies: dict[str, dict[str, Synset]] = {}
    for tag, language_raw in languages.items():
        where = f"language {tag}"
        (synsets_raw,) = _LANGUAGE.read(language_raw, where)
        synset_where = f"{where} synset"
        synsets: dict[str, Synset] = {}
        for raw in synsets_raw:
            synset_id, lemmas, gloss, genus, differentia = _SYNSET.read(raw, synset_where)
            if not lemmas:
                raise FormatError(f"{where}: synset {synset_id} has no lemmas")
            if synset_id in synsets:
                raise FormatError(f"{where}: duplicate synset id {synset_id!r}")
            for lemma in lemmas:
                if lemma != lemma.lower():
                    raise FormatError(
                        f"{where}: lemma {lemma!r} of {synset_id} is not lowercase"
                    )
            synsets[synset_id] = Synset(
                synset_id, tag, tuple(lemmas), gloss, genus, tuple(differentia)
            )
        _check_hierarchy(tag, synsets)
        hierarchies[tag] = synsets

    catalogue: list[CatalogueEntry] = []
    for raw in catalogue_raw:
        entry = CatalogueEntry(*_CATALOGUE.read(raw, "catalogue"))
        if entry.language not in hierarchies:
            raise FormatError(f"catalogue references unknown language {entry.language!r}")
        if entry.root not in hierarchies[entry.language]:
            raise FormatError(f"catalogue references unknown root {entry.root!r}")
        catalogue.append(entry)

    return LexicalSemanticResource(resource_id, hierarchies, tuple(catalogue))


def _check_hierarchy(tag: str, synsets: Mapping[str, Synset]) -> None:
    for synset in synsets.values():
        if synset.genus is not None and synset.genus not in synsets:
            raise FormatError(
                f"language {tag}: synset {synset.id} has dangling genus {synset.genus!r}"
            )
        if synset.genus is not None and not synset.differentia:
            raise FormatError(
                f"language {tag}: non-root synset {synset.id} has empty differentia"
            )

    for _, members in parent_cycles(synsets, attrgetter("genus")):
        raise FormatError(f"language {tag}: genus cycle {{{', '.join(members)}}}")

    roots = [s.id for s in synsets.values() if s.genus is None]
    if synsets and len(roots) != 1:
        raise FormatError(f"language {tag}: expected exactly one root, found {sorted(roots)}")


def resolve_sense(
    resource: LexicalSemanticResource, lemma: str, language: str
) -> Synset:
    """First-sense lookup: the matching synset with the smallest id wins."""
    resource.language(language)
    synset = resource._senses[language].get(lemma.lower())
    if synset is None:
        raise ValueError(f"lemma {lemma!r} not found in language {language!r}")
    return synset


def hypernym_path(resource: LexicalSemanticResource, synset_id: str) -> list[Synset]:
    """Genus chain from the synset up to its language root (inclusive)."""
    holders = [
        tag for tag, synsets in resource.hierarchies.items() if synset_id in synsets
    ]
    if not holders:
        raise ValueError(f"unknown synset {synset_id!r}")
    if len(holders) > 1:
        raise ValueError(f"synset {synset_id!r} is ambiguous across languages {holders}")
    tag = holders[0]
    synsets = resource.hierarchies[tag]
    path = [synsets[synset_id]]
    while (genus := path[-1].genus) is not None:
        if genus not in synsets:
            raise ValueError(f"language {tag}: synset {path[-1].id} has dangling genus {genus!r}")
        if len(path) == len(synsets):  # the path has gone round a cycle
            raise ValueError(f"language {tag}: genus chain of synset {synset_id} has a cycle")
        path.append(synsets[genus])
    return path
