"""Inverted-file construction, serialization, and staleness detection."""

import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus_kit import corpus_documents, doc_to_corpus, empty_doc, occurrence_ids, small_doc, texts
from dvcm.engine import IndexedEngine
from dvcm.index import (
    IndexMismatchError,
    IndexSet,
    build_index,
    dumps_index,
    load_index,
    loads_index,
    save_index,
)
from dvcm.index import IndexFormatError
from dvcm.model import corpus_fingerprint


@pytest.fixture(scope="module")
def f1_index(f1):
    return build_index(f1)


def test_fingerprint_binds_index_to_corpus(f1, f1_index):
    assert f1_index.fingerprint == corpus_fingerprint(f1)


def test_dancer_postings(f1, f1_index):
    assert set(f1_index.dancers) == {"anitha", "lisa"}
    anitha_shots = f1_index.shots_of_occurrences(f1_index.dancers["anitha"])
    assert anitha_shots == {"sh1", "sh2", "sh5", "sh6", "sh7", "sh9"}


def test_body_part_postings_drop_sides(f1_index):
    assert set(f1_index.body_parts) == {"eye", "hand", "hands", "legs"}
    # "left hand" and "right hand" both land under "hand"
    assert len(f1_index.body_parts["hand"]) >= 2


def test_scene_level_postings(f1_index):
    assert f1_index.backgrounds == {"temple": ("sc1", "sc2")}
    assert set(f1_index.costumes) == {"red silk", "blue cotton"}
    assert f1_index.costumes["red silk"] == ("sc1", "sc2")


def test_occurrence_shot_postings(f1, f1_index):
    assert f1_index.occurrence_shots["sh2-da1"] == ("sh2",)
    assert set(f1_index.occurrence_shots) == set(occurrence_ids(f1))


def test_reflexion_and_instrument_postings(f1_index):
    assert set(f1_index.reflexions) == {"excited", "romantic", "joy", "sad"}
    assert set(f1_index.instruments) == {"veena", "mridangam"}
    assert f1_index.instruments["veena"] == ("sh1-da1",)


def test_postings_are_sorted_tuples(f1_index):
    for table in (
        f1_index.dancers,
        f1_index.body_parts,
        f1_index.postures,
        f1_index.reflexions,
        f1_index.instruments,
        f1_index.backgrounds,
        f1_index.costumes,
        f1_index.occurrence_shots,
    ):
        for postings in table.values():
            assert isinstance(postings, tuple)
            assert list(postings) == sorted(postings)


def test_serialization_round_trip_and_determinism(f1, f1_index):
    text = dumps_index(f1_index)
    assert dumps_index(build_index(f1)) == text
    again = loads_index(text)
    assert again == f1_index


def test_save_and_load(tmp_path, f1, f1_index):
    path = tmp_path / "f1.index.json"
    save_index(f1_index, path)
    assert load_index(path, f1) == f1_index


def test_load_against_other_corpus_is_rejected(tmp_path, f1, f1_index):
    path = tmp_path / "f1.index.json"
    save_index(f1_index, path)
    other = doc_to_corpus(small_doc())
    with pytest.raises(IndexMismatchError):
        load_index(path, other)


def test_stale_prebuilt_index_is_rejected(f1, f1_index):
    other = doc_to_corpus(small_doc())
    with pytest.raises(IndexMismatchError):
        IndexedEngine(other, index=f1_index)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("{nope", "line 1"),
        ("[]", "expected an object"),
        ('{"fingerprint": "ab"}', "expected an object"),
    ],
)
def test_format_errors(text, fragment):
    with pytest.raises(IndexFormatError) as err:
        loads_index(text)
    assert fragment in str(err.value)


def structured_index_doc(f1_index) -> dict:
    return json.loads(dumps_index(f1_index))


def test_format_error_on_extra_key(f1_index):
    doc = structured_index_doc(f1_index)
    doc["extra"] = {}
    with pytest.raises(IndexFormatError, match="expected an object"):
        loads_index(json.dumps(doc))


def test_format_error_on_bad_fingerprint_type(f1_index):
    doc = structured_index_doc(f1_index)
    doc["fingerprint"] = 12
    with pytest.raises(IndexFormatError, match="fingerprint"):
        loads_index(json.dumps(doc))


def test_format_error_on_wrong_file_set(f1_index):
    doc = structured_index_doc(f1_index)
    doc["files"].pop("dancers")
    with pytest.raises(IndexFormatError, match="files"):
        loads_index(json.dumps(doc))


def test_format_error_on_non_object_table(f1_index):
    doc = structured_index_doc(f1_index)
    doc["files"]["dancers"] = []
    with pytest.raises(IndexFormatError, match="dancers"):
        loads_index(json.dumps(doc))


def test_format_error_on_bad_postings(f1_index):
    doc = structured_index_doc(f1_index)
    doc["files"]["dancers"]["anitha"] = ["sh1-da1", 7]
    with pytest.raises(IndexFormatError, match="string"):
        loads_index(json.dumps(doc))


@pytest.mark.parametrize("fmt", [None, 1, 2, "3"])
def test_other_or_missing_format_is_refused(f1_index, fmt):
    doc = structured_index_doc(f1_index)
    assert doc["format"] == 3
    if fmt is None:
        del doc["format"]
    else:
        doc["format"] = fmt
    with pytest.raises(IndexFormatError, match="rebuild the index$"):
        loads_index(json.dumps(doc))


@pytest.mark.parametrize("shots", [[], ["sh1", "sh2"]])
def test_occurrence_must_map_to_exactly_one_shot(f1_index, shots):
    doc = structured_index_doc(f1_index)
    doc["files"]["occurrence_shots"]["sh2-da1"] = shots
    with pytest.raises(IndexFormatError, match=r"\['sh2-da1'\] must hold exactly one shot ID"):
        loads_index(json.dumps(doc))


@pytest.mark.parametrize("name", ["dancers", "postures", "reflexions", "occurrence_shots"])
def test_truncated_posting_file_is_refused(f1, f1_index, name):
    # each occurrence posts exactly once in these files
    table = dict(getattr(f1_index, name))
    key = sorted(table)[0]
    table[key] = table[key][:-1]
    truncated = dataclasses.replace(f1_index, **{name: table})
    with pytest.raises(IndexMismatchError, match=rf"^index files\.{name} posts \d+ "):
        truncated.check_corpus(f1)
    with pytest.raises(IndexMismatchError, match="rebuild the index$"):
        IndexedEngine(f1, index=truncated)


def test_failed_save_keeps_the_previous_index_file(tmp_path, f1_index, disk_full):
    path = tmp_path / "f1.index.json"
    path.write_text(dumps_index(f1_index), encoding="utf-8")
    before = path.read_bytes()
    with pytest.raises(OSError):
        save_index(build_index(doc_to_corpus(small_doc())), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["f1.index.json"]


def assert_index_text_matches_the_json_encoder(index):
    # the stdlib encoder is the oracle for the text, the parser for the content
    text = dumps_index(index)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert loads_index(text) == index


@settings(max_examples=60, deadline=None)
@given(corpus_documents())
@example(empty_doc())
@example(small_doc())
def test_index_writer_matches_the_json_encoder_on_built_indexes(doc):
    assert_index_text_matches_the_json_encoder(build_index(doc_to_corpus(doc)))


_posting_files = st.dictionaries(texts, st.lists(texts, max_size=3).map(tuple), max_size=3)

_index_sets = st.builds(
    IndexSet,
    fingerprint=texts,
    **{
        f.name: _posting_files
        for f in dataclasses.fields(IndexSet)
        if f.name not in ("fingerprint", "occurrence_shots")
    },
    occurrence_shots=st.dictionaries(texts, texts.map(lambda shot: (shot,)), max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(_index_sets)
@example(IndexSet("", **{f.name: {} for f in dataclasses.fields(IndexSet)[1:]}))
def test_index_writer_matches_the_json_encoder_on_drawn_indexes(index):
    assert_index_text_matches_the_json_encoder(index)


def test_shots_of_occurrences(f1, f1_index):
    assert f1_index.shots_of_occurrences(["sh2-da1", "sh5-da1"]) == {"sh2", "sh5"}
    assert f1_index.shots_of_occurrences([]) == set()


def test_medium_corpus_index_round_trips(medium_corpus):
    index = build_index(medium_corpus)
    assert loads_index(dumps_index(index)) == index
    assert set(index.occurrence_shots) == set(occurrence_ids(medium_corpus))
    for shot in medium_corpus.shots.values():
        for occ in shot.occurrences:
            assert index.occurrence_shots[occ.occ_id] == (shot.id,)
