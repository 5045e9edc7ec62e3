"""Corpus model: parsing, integrity validation, serialization, lookups."""

import hashlib
import itertools
import json

from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import example, given, settings

from corpus_kit import corpus_documents, doc_to_corpus, empty_doc, occurrence_ids, small_doc
from dvcm.model import (
    Corpus,
    CorpusFormatError,
    Granularity,
    IntegrityError,
    Scene,
    SpatialTriplet,
    StepDefinition,
    StepOccurrence,
    TimeInterval,
    UnknownIdError,
    _CATALOGS,
    corpus_chunks,
    corpus_document,
    corpus_fingerprint,
    dumps_corpus,
    expand_scenes_to_shots,
    is_subinterval,
    lift_granularity,
    load_corpus,
    loads_corpus,
    parse_corpus_document,
    save_corpus,
    validate_corpus,
    write_text_atomic,
)
from dvcm.generator import GenParams, generate_corpus


# --------------------------------------------------------------------------
# Round trips and canonical form


def test_small_doc_parses_and_round_trips():
    corpus = doc_to_corpus(small_doc())
    assert validate_corpus(corpus) == []
    again = loads_corpus(dumps_corpus(corpus))
    assert again == corpus


def test_fixture_round_trips(f1):
    assert loads_corpus(dumps_corpus(f1)) == f1


def test_serialization_is_canonical_and_stable():
    corpus = doc_to_corpus(small_doc())
    text = dumps_corpus(corpus)
    assert dumps_corpus(loads_corpus(text)) == text


@settings(max_examples=100, deadline=None)
@given(corpus_documents())
@example(empty_doc())
@example(small_doc())
def test_corpus_writer_matches_the_json_encoder(doc):
    # the stdlib encoder is the oracle for the text, the parser for the content
    corpus = doc_to_corpus(doc)
    text = dumps_corpus(corpus)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert loads_corpus(text) == corpus
    assert corpus_fingerprint(corpus) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_top_level_array_order_does_not_matter():
    doc = small_doc()
    doc["dancers"].reverse()
    doc["shots"].reverse()
    assert dumps_corpus(doc_to_corpus(doc)) == dumps_corpus(doc_to_corpus(small_doc()))


def test_save_and_load(tmp_path):
    corpus = doc_to_corpus(small_doc())
    path = tmp_path / "small.json"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


def test_fingerprint_is_hex_and_tracks_content():
    corpus = doc_to_corpus(small_doc())
    fp = corpus_fingerprint(corpus)
    assert len(fp) == 64 and set(fp) <= set("0123456789abcdef")

    doc = small_doc()
    doc["shots"][0]["description"] = "renamed"
    assert corpus_fingerprint(doc_to_corpus(doc)) != fp


def test_fingerprint_of_a_corpus_in_memory_hashes_its_saved_text():
    corpus = doc_to_corpus(small_doc())
    text = dumps_corpus(corpus)
    assert corpus_fingerprint(corpus) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_fingerprint_of_a_loaded_corpus_hashes_the_file_bytes(tmp_path):
    corpus = doc_to_corpus(small_doc())
    path = tmp_path / "small.json"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded._fingerprint == hashlib.sha256(path.read_bytes()).hexdigest()
    assert corpus_fingerprint(loaded) == corpus_fingerprint(corpus)


def test_fingerprint_of_a_loaded_corpus_follows_its_layout(tmp_path):
    path = tmp_path / "compact.json"
    path.write_text(json.dumps(small_doc()), encoding="utf-8")
    loaded = load_corpus(path)
    assert loaded == doc_to_corpus(small_doc())
    assert corpus_fingerprint(loaded) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert corpus_fingerprint(loaded) != corpus_fingerprint(doc_to_corpus(small_doc()))


def test_failed_save_keeps_the_previous_corpus_file(tmp_path, disk_full):
    path = tmp_path / "small.json"
    path.write_text(dumps_corpus(doc_to_corpus(small_doc())), encoding="utf-8")
    before = path.read_bytes()
    doc = small_doc()
    doc["shots"][0]["description"] = "renamed"
    with pytest.raises(OSError):
        save_corpus(doc_to_corpus(doc), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["small.json"]


def test_a_chunk_source_failing_partway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "small.json"
    save_corpus(doc_to_corpus(small_doc()), path)
    before = path.read_bytes()
    doc = small_doc()
    doc["shots"][0]["description"] = "renamed"

    def failing_chunks():
        yield from itertools.islice(corpus_chunks(doc_to_corpus(doc)), 3)
        assert (tmp_path / "small.json.tmp").exists()
        raise RuntimeError("chunk source failed")

    with pytest.raises(RuntimeError, match="chunk source failed"):
        write_text_atomic(path, failing_chunks())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["small.json"]


def test_corpus_equality_ignores_derived_tables():
    a = doc_to_corpus(small_doc())
    b = doc_to_corpus(small_doc())
    # both derived values are computed on first use
    assert b.occ_ids_for_step_def("p1") == ("h1-d1",)
    assert len(corpus_fingerprint(b)) == 64
    assert a == b


# --------------------------------------------------------------------------
# Entities

ENTITY_CLASSES = (*_CATALOGS.values(), StepOccurrence, SpatialTriplet, TimeInterval)


def entities(corpus: Corpus):
    """Every entity of a corpus, nested ones included."""
    for key in _CATALOGS:
        yield from getattr(corpus, key).values()
    for shot in corpus.shots.values():
        yield shot.life_span
        yield from shot.occurrences
        yield from shot.spatial_triplets
    for scene in corpus.scenes.values():
        yield scene.life_span
    for video in corpus.videos.values():
        yield video.life_span


@pytest.fixture(scope="module")
def generated_corpus():
    return generate_corpus(GenParams(n_shots=200, n_dancers=5, seed=3))


@pytest.mark.parametrize("cls", ENTITY_CLASSES, ids=lambda cls: cls.__name__)
def test_entities_are_frozen_and_slotted(cls, generated_corpus):
    parsed = loads_corpus(dumps_corpus(generated_corpus))
    entity = next(e for e in entities(parsed) if type(e) is cls)
    assert not hasattr(entity, "__dict__")
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(entity, f.name, getattr(entity, f.name))
    # the parser fills slots without __init__; the result is the same value
    twin = cls(**{f.name: getattr(entity, f.name) for f in fields(cls)})
    assert twin is not entity
    assert twin == entity and hash(twin) == hash(entity)


def test_parsed_entities_equal_the_ones_built_through_init(generated_corpus):
    parsed = loads_corpus(dumps_corpus(generated_corpus))
    assert parsed == generated_corpus
    built, read = list(entities(generated_corpus)), list(entities(parsed))
    assert {type(e) for e in read} == set(ENTITY_CLASSES)
    assert read == built
    assert list(map(hash, read)) == list(map(hash, built))


# --------------------------------------------------------------------------
# Structural parse errors


def test_loads_rejects_bad_json_with_position():
    with pytest.raises(CorpusFormatError) as err:
        loads_corpus("{nope")
    assert "line 1" in str(err.value)


def test_top_level_must_be_object():
    with pytest.raises(CorpusFormatError, match="top level"):
        parse_corpus_document([])


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("songs"), "missing top-level array 'songs'"),
        (lambda d: d.update(extras=[]), "unknown top-level key"),
        (lambda d: d.update(songs={}), "expected array"),
        (lambda d: d["dancers"][0].update(height=170), "unknown field"),
        (lambda d: d["dancers"][0].pop("age"), "missing field 'age'"),
        (lambda d: d["dancers"][0].update(age="25"), "expected integer"),
        (lambda d: d["dancers"][0].update(age=True), "expected integer"),
        (lambda d: d["dancers"][0].update(name=7), "expected string"),
        (lambda d: d["videos"][0].update(recording_date="March 5"), "invalid date"),
        (lambda d: d["videos"][0].update(recording_date="20100305"), "invalid date"),
        (lambda d: d["videos"][0].update(recording_date="2010-W09-5"), "invalid date"),
        (lambda d: d["step_defs"][0].update(step_class="XX"), "step_class"),
        (lambda d: d["scenes"][0].update(component="ZZ"), "component"),
        (lambda d: d["shots"][0].update(life_span={"start": 0}), "missing field 'end'"),
        (lambda d: d["shots"][0].update(occurrences={}), "expected array"),
        (lambda d: d["scenes"][0].update(shot_ids=["h1", 2]), "expected string"),
        (
            lambda d: d["scenes"][0].update(costume_map=[{"dancer_id": "d1"}]),
            "missing field 'values'",
        ),
        (
            lambda d: d["shots"][0]["occurrences"][0].update(mood="sad"),
            "unknown field",
        ),
        (
            lambda d: d["shots"][0]["occurrences"][0].update(posture=3),
            "shots[0].occurrences[0].posture: expected string, got int",
        ),
        (
            lambda d: d["shots"][1]["occurrences"][1].update(instrument_id=7),
            "shots[1].occurrences[1].instrument_id: expected string, got int",
        ),
        (
            lambda d: d["shots"][1]["spatial_triplets"][0].pop("relation"),
            "shots[1].spatial_triplets[0]: missing field 'relation'",
        ),
        (
            lambda d: d["scenes"][0]["costume_map"][0].update(values=[5]),
            "scenes[0].costume_map[0].values[0]: expected string, got int",
        ),
        (
            lambda d: d["backgrounds"][0].update(location_existence={"start": 0, "end": "9"}),
            "backgrounds[0].location_existence.end: expected integer, got str",
        ),
        (
            lambda d: d["videos"][0].update(compound_scene_ids="g1"),
            "videos[0].compound_scene_ids: expected array, got str",
        ),
        (
            lambda d: d["step_defs"][1].update(step_class="XX"),
            "step_defs[1].step_class: expected one of ['PY', 'AD', 'ASHA', 'SHA', 'CS'], got 'XX'",
        ),
        (lambda d: d["shots"].append(7), "shots[2]: expected object, got int"),
        # a wrong-typed value in an object that holds every field
        (
            lambda d: d["shots"][0]["occurrences"][0].update(reflexion=["happy"]),
            "shots[0].occurrences[0].reflexion: expected string, got list",
        ),
        (
            lambda d: d["backgrounds"][0].update(description=None),
            "backgrounds[0].description: expected string, got NoneType",
        ),
        (lambda d: d["dancers"][1].update(age=31.0), "dancers[1].age: expected integer, got float"),
        (
            lambda d: d["shots"][0].update(life_span=[0, 1000]),
            "shots[0].life_span: expected object, got list",
        ),
        # a wrong-typed value in an object that omits an optional field
        (
            lambda d: d["shots"][1]["occurrences"][0].update(step_def_id=1),
            "shots[1].occurrences[0].step_def_id: expected string, got int",
        ),
        (
            lambda d: (
                d["backgrounds"][0].pop("location_existence"),
                d["backgrounds"][0].update(location=[]),
            ),
            "backgrounds[0].location: expected string, got list",
        ),
        # a non-string inside a string array
        (
            lambda d: d["shots"][1].update(dancer_ids=["d1", None]),
            "shots[1].dancer_ids[1]: expected string, got NoneType",
        ),
        (
            lambda d: d["scenes"][0].update(shot_ids=["h1", "h2", {"id": "h3"}]),
            "scenes[0].shot_ids[2]: expected string, got dict",
        ),
        (
            lambda d: d["scenes"][0]["costume_map"][0].update(values=["c1", ["c2"]]),
            "scenes[0].costume_map[0].values[1]: expected string, got list",
        ),
        (
            lambda d: d["scenes"][0]["costume_map"][0].update(values="c1"),
            "scenes[0].costume_map[0].values: expected array, got str",
        ),
        # a non-string in a fixed vocabulary
        (
            lambda d: d["step_defs"][0].update(step_class=1),
            "step_defs[0].step_class: expected string, got int",
        ),
        (
            lambda d: d["scenes"][0].update(component=None),
            "scenes[0].component: expected string, got NoneType",
        ),
    ],
)
def test_malformed_documents_are_rejected(mutate, fragment):
    doc = small_doc()
    mutate(doc)
    with pytest.raises(CorpusFormatError) as err:
        parse_corpus_document(doc)
    assert fragment in str(err.value)


def test_optional_fields_may_be_omitted_or_null_and_are_written_as_null():
    omitted = small_doc()
    del omitted["shots"][0]["occurrences"][0]["instrument_id"]
    del omitted["backgrounds"][0]["location_existence"]
    nulled = small_doc()
    nulled["shots"][0]["occurrences"][0]["instrument_id"] = None
    nulled["backgrounds"][0]["location_existence"] = None
    corpus = doc_to_corpus(omitted)
    assert corpus == doc_to_corpus(nulled)
    assert corpus.shots["h1"].occurrences[0].instrument_id is None
    assert corpus.backgrounds["b1"].location_existence is None
    doc = corpus_document(corpus)
    assert doc["shots"][0]["occurrences"][0]["instrument_id"] is None
    assert doc["backgrounds"][0]["location_existence"] is None


def test_format_error_carries_location():
    doc = small_doc()
    doc["dancers"][1].pop("sex")
    with pytest.raises(CorpusFormatError) as err:
        parse_corpus_document(doc)
    assert err.value.location == "dancers[1]"


# --------------------------------------------------------------------------
# Integrity rules


def violations_for(doc) -> list:
    with pytest.raises(IntegrityError) as err:
        parse_corpus_document(doc)
    return err.value.violations


@pytest.mark.parametrize(
    "mutate, rule",
    [
        (lambda d: d["dancers"][0].update(age=-1), "dancer-age"),
        (
            lambda d: d["step_defs"][0].update(body_parts=["eye", "knee"]),
            "step-body-parts",
        ),
        (lambda d: d["step_defs"][1].update(body_parts=["legs"]), "step-body-parts"),
        (
            lambda d: d["step_defs"].append(
                {
                    "id": "z8",
                    "step_class": "ASHA",
                    "name": "Lotus",
                    "movement": "fingers fan out",
                    "body_parts": ["left hand", "right hand"],
                }
            ),
            "step-body-parts",
        ),
        (
            lambda d: d["step_defs"].append(
                {
                    "id": "z9",
                    "step_class": "SHA",
                    "name": "Pair Lotus",
                    "movement": "both hands fan out",
                    "body_parts": ["left hand"],
                }
            ),
            "step-body-parts",
        ),
        (lambda d: d["songs"][0].update(musician_id="mX"), "dangling-reference"),
        (
            lambda d: d["videos"][0].update(compound_scene_ids=["g1", "gX"]),
            "dangling-reference",
        ),
        (lambda d: d["compound_scenes"][0].update(video_id="vX"), "dangling-reference"),
        (lambda d: d["compound_scenes"][0].update(song_id="sX"), "dangling-reference"),
        (
            lambda d: d["compound_scenes"][0].update(scene_ids=["x1", "xX"]),
            "dangling-reference",
        ),
        (lambda d: d["scenes"][0].update(background_id="bX"), "dangling-reference"),
        (lambda d: d["shots"][0].update(dancer_ids=["d1", "dX"]), "dangling-reference"),
        (
            lambda d: d["shots"][0]["occurrences"][0].update(step_def_id="pX"),
            "dangling-reference",
        ),
        (
            lambda d: d["shots"][0]["occurrences"][0].update(instrument_id="iX"),
            "dangling-reference",
        ),
        (
            lambda d: d["scenes"][0]["costume_map"][0].update(values=["cX"]),
            "dangling-reference",
        ),
        (
            lambda d: d["shots"][0].update(life_span={"start": -5, "end": 100}),
            "interval-bounds",
        ),
        (
            lambda d: d["shots"][0].update(life_span={"start": 900, "end": 100}),
            "interval-bounds",
        ),
        (
            lambda d: d["backgrounds"][0].update(
                location_existence={"start": 5, "end": 1}
            ),
            "interval-bounds",
        ),
        (
            lambda d: d["shots"][1].update(life_span={"start": 1000, "end": 2500}),
            "shot-interval",
        ),
        (lambda d: d["scenes"][0].update(shot_ids=["h2", "h1"]), "shot-ordering"),
        (
            lambda d: d["scenes"][0]["costume_map"].append(
                {"dancer_id": "d9", "values": ["c1"]}
            ),
            "costume-map-keys",
        ),
        (lambda d: d["scenes"][0].update(component="CH"), "song-type"),
        (lambda d: d["compound_scenes"][0].update(scene_ids=[]), "song-type"),
        (
            lambda d: d["compound_scenes"].append(
                {
                    "id": "g2",
                    "video_id": "v1",
                    "song_id": "s1",
                    "scene_ids": ["x1"],
                    "description": "unlisted duplicate owner",
                }
            ),
            "hierarchy-link",
        ),
        (
            lambda d: d["scenes"][0].update(shot_ids=["h1", "h2", "h1"]),
            "hierarchy-link",
        ),
        (
            lambda d: d["shots"].append(
                {
                    "id": "h3",
                    "scene_id": "x1",
                    "life_span": {"start": 2000, "end": 2000},
                    "dancer_ids": ["d1"],
                    "occurrences": [],
                    "spatial_triplets": [],
                    "description": "orphan",
                }
            ),
            "hierarchy-link",
        ),
        (
            lambda d: d["shots"][0]["occurrences"][0].update(shot_id="h2"),
            "occurrence-shot",
        ),
        (
            lambda d: d["shots"][0]["occurrences"].append(
                {
                    "occ_id": "h1-d1b",
                    "shot_id": "h1",
                    "dancer_id": "d1",
                    "step_def_id": "p1",
                    "posture": "back",
                    "reflexion": "sad",
                }
            ),
            "occurrence-uniqueness",
        ),
        (
            lambda d: d["shots"][0]["occurrences"][0].update(dancer_id="d2"),
            "occurrence-dancer-presence",
        ),
        (
            lambda d: d["shots"][1].update(
                spatial_triplets=[
                    {"dancer1": "d1", "dancer2": "d1", "relation": "near"}
                ]
            ),
            "triplet-dancers",
        ),
        (
            lambda d: d["shots"][1].update(
                spatial_triplets=[
                    {"dancer1": "d1", "dancer2": "d2", "relation": "floats_above"}
                ]
            ),
            "triplet-dancers",
        ),
        (
            lambda d: d["shots"][0].update(
                spatial_triplets=[
                    {"dancer1": "d1", "dancer2": "d2", "relation": "near"}
                ]
            ),
            "triplet-dancers",
        ),
        (
            lambda d: d["dancers"].append(
                {"id": "d1", "name": "Mina Again", "age": 40, "sex": "female"}
            ),
            "duplicate-id",
        ),
        (
            lambda d: d["shots"][1]["occurrences"][0].update(occ_id="h1-d1"),
            "duplicate-id",
        ),
    ],
)
def test_integrity_rule_fires(mutate, rule):
    doc = small_doc()
    mutate(doc)
    assert rule in {v.rule for v in violations_for(doc)}


def test_all_violations_are_collected():
    doc = small_doc()
    doc["dancers"][0]["age"] = -1
    doc["songs"][0]["musician_id"] = "mX"
    rules = {v.rule for v in violations_for(doc)}
    assert {"dancer-age", "dangling-reference"} <= rules


def test_violation_text_names_rule_and_entity():
    doc = small_doc()
    doc["dancers"][0]["age"] = -1
    (violation,) = violations_for(doc)
    assert str(violation) == "[dancer-age] d1: age -1 is negative"


def test_validate_accepts_fixture_and_generated(f1, medium_corpus):
    assert validate_corpus(f1) == []
    assert validate_corpus(medium_corpus) == []


def test_validate_flags_unknown_component_and_class_directly():
    scene = Scene(
        id="x1",
        compound_scene_id="g1",
        life_span=TimeInterval(0, 10),
        component="ZZ",
        background_id="b1",
        costume_map=(),
        shot_ids=(),
    )
    step = StepDefinition(
        id="p1", step_class="XX", name="Odd", movement="none", body_parts=frozenset()
    )
    rules = {v.rule for v in validate_corpus(Corpus(scenes={"x1": scene}))}
    assert "song-type" in rules
    rules = {v.rule for v in validate_corpus(Corpus(step_defs={"p1": step}))}
    assert "step-body-parts" in rules


# --------------------------------------------------------------------------
# Intervals, lifting, lookups


def test_is_subinterval():
    outer = TimeInterval(10, 20)
    assert is_subinterval(TimeInterval(10, 20), outer)
    assert is_subinterval(TimeInterval(12, 18), outer)
    assert not is_subinterval(TimeInterval(9, 15), outer)
    assert not is_subinterval(TimeInterval(15, 21), outer)


def test_time_interval_validity():
    assert TimeInterval(0, 0).is_valid()
    assert TimeInterval(3, 7).is_valid()
    assert not TimeInterval(-1, 5).is_valid()
    assert not TimeInterval(5, 3).is_valid()


def test_lift_granularity(f1):
    shots = {"sh5", "sh2", "sh5"}
    assert lift_granularity(f1, shots, Granularity.SHOT) == ["sh2", "sh5"]
    assert lift_granularity(f1, shots, Granularity.SCENE) == ["sc1", "sc2"]
    assert lift_granularity(f1, shots, Granularity.COMPOUND_SCENE) == ["cs1"]
    assert lift_granularity(f1, set(), Granularity.SCENE) == []
    with pytest.raises(UnknownIdError):
        lift_granularity(f1, {"nope"}, Granularity.SHOT)
    with pytest.raises(UnknownIdError):
        lift_granularity(f1, {"nope"}, Granularity.COMPOUND_SCENE)


def test_expand_scenes_to_shots(f1):
    assert expand_scenes_to_shots(f1, {"sc1"}) == {"sh1", "sh2", "sh3", "sh4"}


def test_lookup_accessors(f1):
    assert f1.shot("sh1").id == "sh1"
    assert f1.scene_of_shot("sh5").id == "sc2"
    occ_ids = occurrence_ids(f1)
    assert len(occ_ids) == len(set(occ_ids))
    assert f1.occ_ids_for_step_def("st6") != ()
    assert f1.occ_ids_for_step_def("unused") == ()
    for call in (f1.shot, f1.scene):
        with pytest.raises(UnknownIdError):
            call("missing")


def test_shot_and_scene_helpers(f1):
    sh2 = f1.shot("sh2")
    assert sh2.occurrence_of("da1").step_def_id == "st1"
    assert sh2.occurrence_of("da2") is None


def test_generated_corpus_is_json_document(tmp_path):
    corpus = generate_corpus(GenParams(n_shots=12, n_dancers=3, seed=2))
    path = tmp_path / "g.json"
    save_corpus(corpus, path)
    doc = json.loads(path.read_text())
    assert sorted(doc) == sorted(
        [
            "videos",
            "songs",
            "musicians",
            "dancers",
            "backgrounds",
            "costumes",
            "instruments",
            "step_defs",
            "compound_scenes",
            "scenes",
            "shots",
        ]
    )
