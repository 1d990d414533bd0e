from __future__ import annotations

import gc
import re
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

import facetforge
from facetforge import core
from facetforge.core import (
    Checked,
    Finding,
    Identifier,
    Iri,
    Label,
    RULES,
    check_identifier,
    collector_paused,
    finding,
    format_timestamp,
    mint_iri,
    parse_timestamp,
    sort_findings,
    timestamp_identifier,
    validate_identifier,
)

IDENTIFIER_RE = re.compile(r"[A-Za-z0-9._-]+\Z")


class TestIdentifier:
    def test_accepts_notation_style_text(self):
        assert validate_identifier("9C").value == "9C"

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            validate_identifier("")

    def test_reports_position_of_illegal_character(self):
        with pytest.raises(ValueError, match="illegal at index 2"):
            validate_identifier("N7'")

    @given(st.text(max_size=40))
    def test_accepts_exactly_the_identifier_language(self, text):
        matches = bool(IDENTIFIER_RE.match(text))
        try:
            validate_identifier(text)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == matches

    @given(st.text(max_size=40))
    def test_check_identifier_agrees_with_validate_identifier(self, text):
        try:
            expected = validate_identifier(text).value
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                check_identifier(text)
            assert str(raised.value) == str(exc)
        else:
            assert check_identifier(text) is expected

    def test_dataclass_validates_too(self):
        with pytest.raises(ValueError):
            Identifier("a b")


class TestIri:
    def test_accepts_scheme_authority_path(self):
        assert Iri("https://ex.org/du").value == "https://ex.org/du"

    @pytest.mark.parametrize(
        "bad", ["https://ex.org", "no-scheme/path", "https://ex org/du", "http://"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Iri(bad)


def test_every_validated_tuple_has_one_construction_path():
    """The validated named tuples all take ``Checked``'s ``__new__``,
    ``_make`` and ``__reduce__``, so none can be made around its check."""
    types = {
        facetforge.Iri, facetforge.Label, facetforge.Literal, facetforge.Concept,
        facetforge.CallNumber, facetforge.SubjectHeading, facetforge.Synset,
    }
    assert set(Checked.__subclasses__()) == types
    for value_type in types:
        assert value_type.__mro__[1] is Checked and "_check" in vars(value_type)
        assert not {"__new__", "_make", "__reduce__"} & vars(value_type).keys(), value_type


@pytest.mark.parametrize("was_on", [True, False])
def test_the_collector_is_paused_in_the_block_and_given_back_as_found(was_on):
    (gc.enable if was_on else gc.disable)()
    try:
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is was_on
        with pytest.raises(KeyError), collector_paused():
            raise KeyError("x")
        assert gc.isenabled() is was_on
    finally:
        gc.enable()


class TestMintIri:
    BASE = Iri("https://ex.org/du")

    def test_joins_segments(self):
        minted = mint_iri(self.BASE, ["Person", "schumacher-ef"])
        assert minted.value == "https://ex.org/du/Person/schumacher-ef"

    def test_rejects_invalid_segment(self):
        with pytest.raises(ValueError, match="illegal"):
            mint_iri(self.BASE, ["Organization", "harper & row"])

    def test_names_the_first_illegal_character(self):
        with pytest.raises(ValueError) as caught:
            mint_iri(self.BASE, ["Organization", "harper & row"])
        assert str(caught.value) == (
            "identifier 'harper & row': character ' ' illegal at index 6"
        )

    def test_matches_each_text_segment_once(self, monkeypatch):
        pattern, matched, checked = core._IDENTIFIER_RE, [], Identifier("eg")

        class Counting:
            def match(self, text):
                matched.append(text)
                return pattern.match(text)

        monkeypatch.setattr(core, "_IDENTIFIER_RE", Counting())
        mint_iri(self.BASE, ["Person", checked, "schumacher-ef"])
        assert matched == ["Person", "schumacher-ef"]

    def test_timestamp_segment(self):
        minted = mint_iri(self.BASE, ["eg", "2024-01-01T00-00-00Z"])
        assert minted.value == "https://ex.org/du/eg/2024-01-01T00-00-00Z"

    def test_rejects_empty_segment_list(self):
        with pytest.raises(ValueError, match="at least one segment"):
            mint_iri(self.BASE, [])

    @given(
        st.lists(st.from_regex(r"[A-Za-z0-9._-]{1,8}", fullmatch=True), min_size=1, max_size=4)
    )
    def test_deterministic_and_prefix_structured(self, segments):
        first = mint_iri(self.BASE, segments)
        second = mint_iri(self.BASE, segments)
        assert first == second
        assert first.value == self.BASE.value + "/" + "/".join(segments)


class TestLabel:
    def test_requires_nonblank_text(self):
        with pytest.raises(ValueError):
            Label("   ")

    def test_language_tag_checked(self):
        with pytest.raises(ValueError):
            Label("ok", language="not a tag")


class TestTimestamps:
    def test_round_trip(self):
        at = datetime(2024, 1, 1, 12, 30, 59, tzinfo=timezone.utc)
        assert parse_timestamp(format_timestamp(at)) == at

    def test_identifier_form_is_identifier(self):
        at = datetime(2024, 1, 1, tzinfo=timezone.utc)
        validate_identifier(timestamp_identifier(at))

    def test_rejects_other_layouts(self):
        with pytest.raises(ValueError):
            parse_timestamp("2024-01-01 00:00:00")


class TestFindings:
    def test_rule_codes_are_registered(self):
        with pytest.raises(ValueError, match="unregistered"):
            Finding("XX9", "error", "p", "m")

    def test_severity_must_match_registry(self):
        with pytest.raises(ValueError, match="registered"):
            Finding("IC3", "error", "p", "m")

    def test_helper_pulls_severity(self):
        item = finding("IC3", "P", "m")
        assert item.severity == "warning"

    def test_sort_is_registry_then_path(self):
        items = [finding("NP1", "b", "m"), finding("IC1", "z", "m"), finding("NP1", "a", "m")]
        ordered = sort_findings(items)
        assert [(f.code, f.path) for f in ordered] == [
            ("IC1", "z"),
            ("NP1", "a"),
            ("NP1", "b"),
        ]

    def test_registry_covers_all_linter_codes(self):
        expected = {
            "IC1", "IC2", "IC3", "IC4", "IC5", "CH1", "VP1", "NP1", "NP2",
            "CC1", "CC2", "CC3", "LO1", "LO2", "LO3", "LO4", "EP1", "EP2", "EP3",
        }
        assert expected <= set(RULES)
