from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from facetforge import (
    build_entity_graph,
    build_lightweight_ontology,
    ground,
    load_catalogue_code,
    load_dataset_schema,
    load_etg,
    load_lexsem,
    load_mapping_spec,
    load_schedule,
    parse_formula,
)
from facetforge.eg import read_table
from facetforge.fixtures import fixture_text
from helpers import AT, BASE, DATASET_NAMES, MED_FORMULA


@pytest.fixture(scope="session")
def med():
    return load_schedule(fixture_text("med.schedule.json"))


@pytest.fixture(scope="session")
def med_formula(med):
    return parse_formula(MED_FORMULA, med)


@pytest.fixture(scope="session")
def ccc():
    return load_catalogue_code(fixture_text("ccc.catalogue.json"))


@pytest.fixture(scope="session")
def lexsem():
    return load_lexsem(fixture_text("toy.lexsem.json"))


@pytest.fixture(scope="session")
def dataset_schema():
    return load_dataset_schema(fixture_text("du.schema.json"))


@pytest.fixture(scope="session")
def du_etg():
    return load_etg(fixture_text("du.etg.json"))


@pytest.fixture(scope="session")
def du_ontology(lexsem, dataset_schema):
    ontology, findings = build_lightweight_ontology(lexsem, "en", dataset_schema)
    assert findings == []
    return ontology


@pytest.fixture(scope="session")
def schema_graph(du_ontology, du_etg):
    graph, findings = ground(du_ontology, du_etg, {"en-book-1": "Publication"})
    assert findings == []
    return graph


@pytest.fixture(scope="session")
def mapping_spec(schema_graph):
    return load_mapping_spec(fixture_text("du.mapping.json"), schema_graph)


@pytest.fixture(scope="session")
def tables():
    return {name: read_table(fixture_text(f"{name}.csv"), "csv") for name in DATASET_NAMES}


@pytest.fixture(scope="session")
def figure_eg(schema_graph, mapping_spec, tables):
    graph, findings = build_entity_graph(schema_graph, mapping_spec, tables, BASE, AT)
    assert findings == []
    return graph


@pytest.fixture(scope="session")
def gen():
    """The benchmark's seeded input generators (``bench/gen.py``), imported
    from their file as they are."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]
