"""Inverted-file construction, serialization, and staleness detection."""

import dataclasses
import hashlib
import json
from itertools import chain

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corpus_kit import (
    corpus_documents,
    doc_to_corpus,
    empty_doc,
    index_document,
    occurrences_by_ordinal,
    seal_index,
    small_doc,
    texts,
)
import dvcm.model
from dvcm.engine import IndexedEngine, SequentialScanEngine
from dvcm.index import (
    TICKS,
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
from dvcm.normalize import normalize_key


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
    assert f1_index.scenes == ("sc1", "sc2")
    assert f1_index.backgrounds == {"temple": (0, 1)}
    assert set(f1_index.costumes) == {"red silk", "blue cotton"}
    assert f1_index.costumes["red silk"] == (0, 1)


def test_occurrence_shot_postings(f1, f1_index):
    # occurrence ordinals follow shot order, then each shot's own order
    occurrences = occurrences_by_ordinal(f1)
    assert [f1_index.shots[s] for s in f1_index.shot_of_occurrence] == [
        occ.shot_id for occ in occurrences
    ]
    assert occurrences[f1_index.shot_of_occurrence.index(1)].occ_id == "sh2-da1"


def test_id_tables_and_ordinal_maps(f1, f1_index):
    assert f1_index.shots == tuple(sorted(f1.shots))
    assert f1_index.compound_scenes == ("cs1",)
    assert [f1_index.scenes[s] for s in f1_index.scene_of_shot] == [
        f1.shots[shot_id].scene_id for shot_id in f1_index.shots
    ]
    assert f1_index.compound_scene_of_scene == (0, 0)


def test_occurrence_maps_and_shot_tables(f1, f1_index):
    occurrences = occurrences_by_ordinal(f1)
    assert [f1_index.dancer_ids[d] for d in f1_index.dancer_of_occurrence] == [
        occ.dancer_id for occ in occurrences
    ]
    assert [f1_index.step_def_ids[sd] for sd in f1_index.step_def_of_occurrence] == [
        occ.step_def_id for occ in occurrences
    ]
    # scene by scene, each in its own shot order
    assert [f1_index.shots[s] for s in f1_index.shot_order] == [
        shot_id for scene_id in f1_index.scenes for shot_id in f1.scenes[scene_id].shot_ids
    ]
    spans = [f1.shots[shot_id].life_span for shot_id in f1_index.shots]
    assert f1_index.shot_starts == tuple(span.start for span in spans)
    assert f1_index.shot_ends == tuple(span.end for span in spans)


def test_observer_shots(f1, f1_index):
    expected: dict[str, list[int]] = {}
    for ordinal, shot_id in enumerate(f1_index.shots):
        shot = f1.shots[shot_id]
        for dancer_id in sorted(shot.dancer_ids):
            if shot.occurrence_of(dancer_id) is None:
                expected.setdefault(dancer_id, []).append(ordinal)
    assert f1_index.observer_shots == {k: tuple(v) for k, v in expected.items()}
    # Lisa watches in sh2 and sh5, Anitha in sh8
    assert f1_index.observer_shots == {"da1": (7,), "da2": (1, 4)}


def test_catalog_name_tables_cover_entries_without_occurrences():
    doc = small_doc()
    doc["dancers"].append({"id": "d3", "name": " MINA ", "age": 40, "sex": "female"})
    doc["step_defs"].append(
        {"id": "c9", "step_class": "CS", "name": "Rest", "movement": "none", "body_parts": []}
    )
    index = build_index(doc_to_corpus(doc))
    assert index.dancer_ids == ("d1", "d2", "d3")
    assert index.dancers_by_name == {"mina": (0, 2), "tara": (1,)}
    assert index.step_def_ids == ("a1", "c9", "p1")
    assert index.step_defs_by_name == {"stamp": (0,), "rest": (1,), "gaze": (2,)}
    assert index.step_defs_by_class == {"ad": (0,), "cs": (1,), "py": (2,)}
    # the posting files hold only what occurs
    assert set(index.dancers) == {"mina", "tara"} and "rest" not in index.steps


def test_unpinned_index_has_no_fingerprint(monkeypatch, f1, f1_index):
    def refuse(corpus):
        raise AssertionError("the corpus was hashed")

    monkeypatch.setattr(dvcm.model, "corpus_fingerprint", refuse)
    unpinned = build_index(f1, pinned=False)
    assert unpinned == dataclasses.replace(f1_index, fingerprint="")


def test_reflexion_and_instrument_postings(f1, f1_index):
    assert set(f1_index.reflexions) == {"excited", "romantic", "joy", "sad"}
    assert set(f1_index.instruments) == {"veena", "mridangam"}
    occurrences = occurrences_by_ordinal(f1)
    assert [occurrences[o].occ_id for o in f1_index.instruments["veena"]] == ["sh1-da1"]


def test_step_postings(f1, f1_index):
    occurrences = occurrences_by_ordinal(f1)
    for name, key_of in (
        ("steps", lambda sd: normalize_key(sd.name)),
        ("step_classes", lambda sd: sd.step_class.casefold()),
    ):
        expected: dict[str, list[int]] = {}
        for ordinal, occ in enumerate(occurrences):
            expected.setdefault(key_of(f1.step_defs[occ.step_def_id]), []).append(ordinal)
        assert getattr(f1_index, name) == {k: tuple(v) for k, v in expected.items()}


def test_spatial_postings(f1, f1_index):
    # the shots of each stored triplet; performing keeps those in which
    # both dancers have an occurrence
    expected: dict[bool, dict] = {False: {}, True: {}}
    for ordinal, shot_id in enumerate(f1_index.shots):
        shot = f1.shots[shot_id]
        for trip in shot.spatial_triplets:
            key = (trip.relation, trip.dancer1, trip.dancer2)
            expected[False].setdefault(key, set()).add(ordinal)
            if shot.occurrence_of(trip.dancer1) and shot.occurrence_of(trip.dancer2):
                expected[True].setdefault(key, set()).add(ordinal)
    for performing, table in ((False, f1_index.spatial), (True, f1_index.spatial_performing)):
        got = {
            (relation, first, second): set(shots)
            for relation, by_first in table.items()
            for first, by_second in by_first.items()
            for second, shots in by_second.items()
        }
        assert got == expected[performing]
    assert f1_index.spatial["near"] == {"da2": {"da1": (6,)}}
    assert "behind" not in f1_index.spatial_performing


def _posting_lists(index):
    for f in dataclasses.fields(index):
        depth = f.metadata.get("depth", 0)
        tables = [getattr(index, f.name)] if depth else []
        for _ in range(depth):
            tables = [item for table in tables for item in table.values()]
        yield from tables


def test_postings_are_sorted_tuples(f1_index):
    lists = list(_posting_lists(f1_index))
    assert len(lists) > 20
    for postings in lists:
        assert isinstance(postings, tuple) and postings
        assert all(a < b for a, b in zip(postings, postings[1:]))


def test_serialization_round_trip_and_determinism(f1, f1_index):
    text = dumps_index(f1_index)
    assert dumps_index(build_index(f1)) == text
    again = loads_index(text)
    assert again == f1_index


def test_save_and_load(tmp_path, f1, f1_index):
    path = tmp_path / "f1.index.json"
    save_index(f1_index, path)
    assert load_index(path, f1) == f1_index


_FILE_NAMES = frozenset(f.name for f in dataclasses.fields(IndexSet)[1:])


def _decoded_files(index) -> set[str]:
    # a loaded set keeps each file it has decoded as an instance attribute
    return set(vars(index)) & _FILE_NAMES


def test_a_query_decodes_only_the_files_it_reads(tmp_path, f1, f1_index):
    path = tmp_path / "f1.index.json"
    save_index(f1_index, path)
    index = load_index(path)
    engine = IndexedEngine(None, index)
    assert _decoded_files(index) == set()
    text = 'find shots where body_part = "hand"'
    assert engine.execute_text(text) == SequentialScanEngine(f1).execute_text(text)
    assert _decoded_files(index) == {"body_parts", "shot_of_occurrence", "shots"}
    # a decoded file is a plain attribute of the set from then on
    assert vars(index)["body_parts"] is index.body_parts == f1_index.body_parts


def test_a_pinned_load_decodes_every_file(tmp_path, f1, f1_index):
    path = tmp_path / "f1.index.json"
    save_index(f1_index, path)
    index = load_index(path, f1)
    assert len(_FILE_NAMES) == 28 and _decoded_files(index) == _FILE_NAMES
    assert index == f1_index


def test_an_unpinned_set_views_the_file_bytes_without_copying_them(tmp_path, f1_index):
    path = tmp_path / "f1.index.json"
    save_index(f1_index, path)
    body = vars(load_index(path))["_source"].body
    # the files are a view into the bytes read from disk, header line and all
    assert isinstance(body, memoryview)
    assert len(body.obj) == path.stat().st_size == len(body) + body.obj.index(b"\n") + 1
    # a full load decodes every file and then lets the bytes go
    assert "_source" not in vars(loads_index(path.read_bytes()))


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


_BAD_HEADER_ENTRY = (
    "files.shots in the header must hold non-negative integers 'entries', 'length' and "
    "'offset', and a string 'sha256'"
)


@pytest.mark.parametrize(
    "edit",
    [
        lambda entry: entry.update(length="5"),
        lambda entry: entry.update(entries=-1),
        lambda entry: entry.update(offset=True),
        lambda entry: entry.update(sha256=None),
        lambda entry: entry.pop("sha256"),
        lambda entry: entry.update(extra=0),
    ],
)
def test_format_error_on_bad_header_entry(f1_index, edit):
    line, _, files = dumps_index(f1_index).partition("\n")
    header = json.loads(line)
    edit(header["files"]["shots"])
    with pytest.raises(IndexFormatError) as err:
        loads_index(json.dumps(header) + "\n" + files)
    assert str(err.value) == _BAD_HEADER_ENTRY


def test_format_error_on_a_header_count_the_file_does_not_hold(f1_index):
    line, _, files = dumps_index(f1_index).partition("\n")
    header = json.loads(line)
    header["files"]["dancers"]["entries"] += 1
    with pytest.raises(IndexFormatError) as err:
        loads_index(json.dumps(header) + "\n" + files)
    assert str(err.value) == (
        "files.dancers holds 12 entries and the header says 13; rebuild the index"
    )


def test_format_error_on_a_file_that_is_not_json(f1_index):
    # the checksum holds, so the decoder is what refuses the file
    line, _, files = dumps_index(f1_index).partition("\n")
    header = json.loads(line)
    entry = header["files"]["shots"]
    text = files[:entry["length"] - 2] + ",\n"
    entry["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    with pytest.raises(IndexFormatError) as err:
        loads_index(json.dumps(header) + "\n" + text + files[entry["length"]:])
    assert str(err.value) == "files.shots: line 2, col 1: Expecting value"


def test_format_error_on_a_file_that_is_not_utf8(f1_index):
    # the checksum holds, so the UTF-8 decode is what refuses the file
    line, _, files = dumps_index(f1_index).encode("utf-8").partition(b"\n")
    header = json.loads(line)
    entry = header["files"]["shots"]
    start = entry["offset"]
    data = files[start:start + entry["length"]]
    data = data[:5] + b"\xff" + data[6:]
    entry["sha256"] = hashlib.sha256(data).hexdigest()
    text = json.dumps(header).encode("utf-8") + b"\n" + files[:start] + data
    with pytest.raises(IndexFormatError) as err:
        loads_index(text + files[start + entry["length"]:])
    assert str(err.value) == "files.shots: byte 5: not UTF-8: invalid start byte"


def structured_index_doc(f1_index) -> dict:
    return index_document(dumps_index(f1_index).encode("utf-8"))


def test_format_error_on_extra_key(f1_index):
    doc = structured_index_doc(f1_index)
    doc["extra"] = {}
    with pytest.raises(IndexFormatError, match="expected an object"):
        loads_index(seal_index(doc))


def test_format_error_on_bad_fingerprint_type(f1_index):
    doc = structured_index_doc(f1_index)
    doc["fingerprint"] = 12
    with pytest.raises(IndexFormatError, match="fingerprint"):
        loads_index(seal_index(doc))


def test_format_error_on_wrong_file_set(f1_index):
    doc = structured_index_doc(f1_index)
    doc["files"].pop("dancers")
    with pytest.raises(IndexFormatError, match="files"):
        loads_index(seal_index(doc))


def test_format_error_on_non_object_table(f1_index):
    doc = structured_index_doc(f1_index)
    doc["files"]["dancers"] = []
    with pytest.raises(IndexFormatError, match="dancers"):
        loads_index(seal_index(doc))


@pytest.mark.parametrize("bad", ["sh1-da1", True, 1.0, -1, 12, None, [0]])
def test_format_error_on_bad_postings(f1_index, bad):
    # f1 has 12 occurrences: ordinals 0 to 11
    doc = structured_index_doc(f1_index)
    doc["files"]["dancers"]["anitha"] = [0, bad]
    with pytest.raises(
        IndexFormatError,
        match=r"^files\.dancers must hold integer ordinals into files\.shot_of_occurrence, "
        r"from 0 to 11$",
    ):
        loads_index(seal_index(doc))


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("shots", ["sh2", "sh1"], "files.shots must be sorted and duplicate free"),
        ("shots", ["sh1", "sh1"], "files.shots must be sorted and duplicate free"),
        ("scenes", ["sc1", 2], "files.scenes must be a string array"),
        ("scenes", {"sc1": []}, "files.scenes must be an array"),
        ("scene_of_shot", [0, 1],
         "files.scene_of_shot must hold one entry per entry of files.shots"),
        ("compound_scene_of_scene", [0, 1], "files.compound_scene_of_scene must hold integer "
         "ordinals into files.compound_scenes, from 0 to 0"),
        ("postures", {"front": 3}, "files.postures['front'] must be an array"),
        ("spatial", {"near": []}, "files.spatial['near'] must be an object"),
        ("spatial", {"near": {"da2": {"da1": [9]}}},
         "files.spatial must hold integer ordinals into files.shots, from 0 to 8"),
    ],
)
def test_format_error_on_bad_tables(f1_index, name, value, message):
    doc = structured_index_doc(f1_index)
    doc["files"][name] = value
    with pytest.raises(IndexFormatError) as err:
        loads_index(seal_index(doc))
    assert str(err.value) == message


@pytest.mark.parametrize("fmt", [None, 1, 2, 3, 4, 5, "6"])
def test_other_or_missing_format_is_refused(f1_index, fmt):
    doc = structured_index_doc(f1_index)
    assert doc["format"] == 6
    if fmt is None:
        del doc["format"]
    else:
        doc["format"] = fmt
    with pytest.raises(IndexFormatError, match="rebuild the index$"):
        loads_index(seal_index(doc))


def test_occurrences_must_follow_shot_order(f1_index):
    doc = structured_index_doc(f1_index)
    doc["files"]["shot_of_occurrence"].reverse()
    with pytest.raises(IndexFormatError, match=r"^files\.shot_of_occurrence must be ascending"):
        loads_index(seal_index(doc))


@pytest.mark.parametrize("shots", [[], [1, 2]])
def test_occurrence_must_map_to_exactly_one_shot(f1_index, shots):
    doc = structured_index_doc(f1_index)
    doc["files"]["shot_of_occurrence"][2] = shots
    with pytest.raises(IndexFormatError, match=r"^files\.shot_of_occurrence must hold integer"):
        loads_index(seal_index(doc))


def _posts_one_less(name: str, table: str, entries: int) -> str:
    return (
        f"files.{name} must post each of the {entries} entries of files.{table} once, "
        f"and posts {entries - 1}; rebuild the index"
    )


def _one_entry_each(name: str, table: str) -> str:
    return f"files.{name} must hold one entry per entry of files.{table}"


# f1 has 12 occurrences, 9 shots, 2 dancers and 6 step definitions.
_TRUNCATIONS = [
    *[(name, _posts_one_less(name, "shot_of_occurrence", 12))
      for name in ("dancers", "postures", "reflexions", "steps", "step_classes")],
    ("dancers_by_name", _posts_one_less("dancers_by_name", "dancer_ids", 2)),
    ("step_defs_by_name", _posts_one_less("step_defs_by_name", "step_def_ids", 6)),
    ("step_defs_by_class", _posts_one_less("step_defs_by_class", "step_def_ids", 6)),
    # the first file checked against the truncated one reports it
    ("shot_of_occurrence", _one_entry_each("dancer_of_occurrence", "shot_of_occurrence")),
    ("dancer_of_occurrence", _one_entry_each("dancer_of_occurrence", "shot_of_occurrence")),
    ("step_def_of_occurrence", _one_entry_each("step_def_of_occurrence", "shot_of_occurrence")),
    *[(name, _one_entry_each(name, "shots"))
      for name in ("scene_of_shot", "shot_order", "shot_starts", "shot_ends")],
]


@pytest.mark.parametrize("name, message", _TRUNCATIONS)
def test_truncated_file_is_refused_without_the_corpus(f1, f1_index, name, message):
    # the counts are checked against the index's own tables on loading
    table = getattr(f1_index, name)
    if isinstance(table, tuple):
        table = table[:-1]
    else:
        table = dict(table)
        key = sorted(table)[0]
        table[key] = table[key][:-1]
    truncated = dataclasses.replace(f1_index, **{name: table})
    with pytest.raises(IndexFormatError) as err:
        loads_index(dumps_index(truncated))
    assert str(err.value) == message


def test_failed_save_keeps_the_previous_index_file(tmp_path, f1_index, disk_full):
    path = tmp_path / "f1.index.json"
    path.write_text(dumps_index(f1_index), encoding="utf-8")
    before = path.read_bytes()
    with pytest.raises(OSError):
        save_index(build_index(doc_to_corpus(small_doc())), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["f1.index.json"]


def assert_index_text_matches_the_json_encoder(index):
    # the stdlib encoder is the oracle for the text of the header and of
    # each file, the parser for the content
    text = dumps_index(index)
    lines = text.split("\n")
    assert lines.pop() == "" and len(lines) == 1 + len(dataclasses.fields(IndexSet)[1:])
    for line in lines:
        assert line == json.dumps(json.loads(line), separators=(",", ":"), sort_keys=True)
    assert loads_index(text) == index


@settings(max_examples=60, deadline=None)
@given(corpus_documents())
@example(empty_doc())
@example(small_doc())
def test_index_writer_matches_the_json_encoder_on_built_indexes(doc):
    assert_index_text_matches_the_json_encoder(build_index(doc_to_corpus(doc)))


@st.composite
def _index_sets(draw):
    """Index sets whose every ordinal indexes its table and whose every
    count holds, drawn file by file in field order, as the loader checks
    them."""
    ids = st.lists(texts, max_size=4, unique=True).map(lambda values: tuple(sorted(values)))
    files: dict = {}
    for f in dataclasses.fields(IndexSet)[1:]:
        of, depth, count_of = (f.metadata[k] for k in ("of", "depth", "count_of"))
        if of is None:
            files[f.name] = draw(ids)
            continue
        if of == TICKS:
            length = len(files[count_of])
            files[f.name] = tuple(draw(st.lists(st.integers(0, 2**40), min_size=length,
                                                max_size=length)))
            continue
        size = len(files[of])
        ordinals = st.integers(0, max(size - 1, 0))
        if count_of is not None and depth == 0:
            length = len(files[count_of])
            assume(size or not length)
            files[f.name] = tuple(draw(st.lists(ordinals, min_size=length, max_size=length)))
            continue
        if count_of is not None:
            # every ordinal of the table posted under exactly one key
            keys = draw(st.lists(texts, min_size=1 if size else 0, max_size=3, unique=True))
            table: dict = {}
            for ordinal in range(size):
                table.setdefault(draw(st.sampled_from(keys)), []).append(ordinal)
            files[f.name] = {key: tuple(postings) for key, postings in table.items()}
            continue
        item = st.lists(ordinals, max_size=min(size, 3), unique=True).map(
            lambda v: tuple(sorted(v))
        )
        if depth == 0:
            # shot_of_occurrence, which ascends: occurrences follow shot order
            item = st.lists(ordinals, max_size=4 if size else 0).map(lambda v: tuple(sorted(v)))
        for _ in range(depth):
            item = st.dictionaries(texts, item, max_size=2)
        files[f.name] = draw(item)
    return IndexSet(draw(texts), **files)


_EMPTY_INDEX = IndexSet(
    "", **{f.name: {} if f.metadata["depth"] else () for f in dataclasses.fields(IndexSet)[1:]}
)


@settings(max_examples=60, deadline=None)
@given(_index_sets())
@example(_EMPTY_INDEX)
def test_index_writer_matches_the_json_encoder_on_drawn_indexes(index):
    assert_index_text_matches_the_json_encoder(index)


def test_shots_of_occurrences(f1, f1_index):
    ordinal = {occ.occ_id: i for i, occ in enumerate(occurrences_by_ordinal(f1))}
    occurrences = [ordinal["sh2-da1"], ordinal["sh5-da1"]]
    assert f1_index.shots_of_occurrences(occurrences) == {"sh2", "sh5"}
    assert f1_index.shots_of_occurrences([]) == set()


def test_occurrence_shots_reads_as_format_3(f1_index):
    # one shot per occurrence, as format 3's occurrence_shots file held
    assert list(f1_index.occurrence_shots.values()) == [
        (shot,) for shot in f1_index.shot_of_occurrence
    ]


def test_medium_corpus_index_round_trips(medium_corpus):
    index = build_index(medium_corpus)
    assert loads_index(dumps_index(index)) == index
    assert [index.shots[s] for s in index.shot_of_occurrence] == [
        occ.shot_id for occ in occurrences_by_ordinal(medium_corpus)
    ]


def test_decoded_files_share_one_object_per_ordinal(medium_corpus):
    # the decoder makes a new integer for each number it reads; a loaded set
    # keeps one per ordinal instead, so a file costs only its arrays
    index = loads_index(dumps_index(build_index(medium_corpus)))
    ordinals = []
    for f in dataclasses.fields(IndexSet)[1:]:
        if f.metadata["of"] in (None, TICKS):
            continue
        tables = [getattr(index, f.name)]
        for _ in range(f.metadata["depth"]):
            tables = [item for table in tables for item in table.values()]
        ordinals.extend(chain.from_iterable(tables))
    assert max(ordinals) > 256  # past the integers Python caches itself
    assert len(set(map(id, ordinals))) == len(set(ordinals))
