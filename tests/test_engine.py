"""Query engines: frozen fixture results, pairing semantics, equivalence."""

import pytest

from corpus_kit import doc_to_corpus, small_doc
from dvcm.bench import collect_vocabulary, random_containment_query
from dvcm.engine import (
    PAIRABLE_FACETS,
    IndexedEngine,
    SequentialScanEngine,
    UnknownNameError,
)
from dvcm.generator import CounterRng
from dvcm.index import IndexSet
from dvcm.model import Granularity
from dvcm.normalize import normalize_key
from dvcm.qlang import (
    And,
    FacetAtom,
    Or,
    Query,
    SpatioTemporal,
    format_query,
    parse_query,
)
from dvcm.temporal import ALLEN_RELATIONS, DANCER_RELATIONS

ENGINES = [SequentialScanEngine, IndexedEngine]

ALL_SHOTS = [f"sh{i}" for i in range(1, 10)]

# Expected results computed by hand from the bundled fixture's annotations.
F1_CASES = [
    ('find shots where dancer = "Lisa"', ["sh1", "sh3", "sh4", "sh6", "sh7", "sh8"]),
    (
        'find shots where dancer = "  aNiThA "',
        ["sh1", "sh2", "sh5", "sh6", "sh7", "sh9"],
    ),
    ('find shots where step = "Nattadavu"', ["sh1", "sh7", "sh8", "sh9"]),
    ('find shots where step_class = "PY"', ["sh2", "sh3", "sh4"]),
    ('find shots where body_part = "eye"', ["sh2", "sh3", "sh4"]),
    ('find shots where body_part = "right hand"', ["sh5", "sh6"]),
    ('find shots where body_part = "LEFT hand"', ["sh5", "sh6"]),
    ('find shots where body_part = "hands"', ["sh1", "sh7", "sh8", "sh9"]),
    (
        'find shots where posture = "front"',
        ["sh1", "sh2", "sh3", "sh5", "sh7", "sh9"],
    ),
    ('find shots where posture = "right" and reflexion = "sad"', ["sh4", "sh6"]),
    ('find shots where reflexion = "romantic"', ["sh2", "sh3", "sh5"]),
    ('find shots where reflexion = "happy"', ["sh2", "sh3", "sh5"]),
    ('find shots where reflexion = "joy"', ["sh2", "sh3", "sh5"]),
    ('find shots where reflexion = "sad"', ["sh4", "sh6", "sh8"]),
    ('find shots where reflexion = "excited"', ["sh1", "sh7", "sh9"]),
    ('find shots where instrument = "Veena"', ["sh1"]),
    ('find shots where instrument = "Mridangam"', ["sh7"]),
    ('find shots where background = "Temple"', ALL_SHOTS),
    ('find shots where costume = "Red Silk"', ALL_SHOTS),
    # dancer= plus a pairable facet narrows to that dancer's own occurrences
    ('find shots where dancer = "Anitha" and step = "Katakamukha"', []),
    ('find shots where dancer = "Lisa" and posture = "left"', []),
    ('find shots where dancer = "Anitha" and step = "Alapadma"', ["sh5", "sh6"]),
    ('find shots where step = "Alapadma" and dancer = "Anitha"', ["sh5", "sh6"]),
    ('find shots where dancer = "Nobody"', []),
    ('find shots where background = "Palace"', []),
    ('find shots where costume = "Denim"', []),
    ('find shots where instrument = "Guitar"', []),
    ('find shots where step = "Moonwalk"', []),
    ('find shots where step_class = "cs"', []),
    (
        'find shots where dancer = "Lisa" or reflexion = "sad"',
        ["sh1", "sh3", "sh4", "sh6", "sh7", "sh8"],
    ),
    ('find shots where follows(dancer = "Anitha", dancer = "Lisa")', ["sh7", "sh8"]),
    ('find shots where follows(dancer = "Lisa", dancer = "Anitha")', ["sh8", "sh9"]),
    ('find shots where repeats(dancer = "Lisa", dancer = "Anitha")', ["sh7", "sh9"]),
    ('find shots where observes(dancer = "Lisa", dancer = "Anitha")', ["sh2", "sh5"]),
    ('find shots where observes(dancer = "Anitha", dancer = "Lisa")', ["sh8"]),
    (
        'find shots where performs_same(dancer = "Anitha", dancer = "Lisa")',
        ["sh1", "sh7"],
    ),
    (
        'find shots where performs_different(dancer = "Anitha", dancer = "Lisa")',
        ["sh6"],
    ),
    (
        'find shots where performs_same_sequence(dancer = "Anitha", dancer = "Lisa")',
        ["sh1"],
    ),
    (
        "find shots where performs_different_sequence"
        '(dancer = "Anitha", dancer = "Lisa")',
        [],
    ),
    ('find shots where follows_sequence(dancer = "Anitha", dancer = "Lisa")', []),
    ('find shots where repeats_sequence(dancer = "Anitha", dancer = "Lisa")', []),
    (
        'find shots where equals(dancer = "Anitha", dancer = "Lisa")',
        ["sh1", "sh6", "sh7"],
    ),
    (
        "find shots where meets"
        '(dancer = "Anitha", dancer = "Lisa", step = "Alapadma")',
        ["sh5", "sh6", "sh7"],
    ),
    (
        "find shots where meets"
        '(dancer = "Anitha", dancer = "Lisa", step_class = "cs")',
        [],
    ),
    (
        "find shots where spatial"
        '(dancer = "Anitha", dancer = "Lisa", relation = "behind")',
        ["sh8"],
    ),
    (
        "find shots where spatial"
        '(dancer = "Anitha", dancer = "Lisa", relation = "behind",'
        ' performing = "true")',
        [],
    ),
    (
        "find shots where spatial"
        '(dancer = "Lisa", dancer = "Anitha", relation = "near")',
        ["sh7"],
    ),
    (
        "find shots where spatial"
        '(dancer = "Anitha", dancer = "Lisa", relation = "near")',
        [],
    ),
    (
        "find shots where spatial"
        '(dancer = "Anitha", dancer = "Lisa", relation = "left_of",'
        ' performing = "true")',
        ["sh1"],
    ),
    (
        'find shots where performs_same(dancer = "Anitha", dancer = "Lisa")'
        ' and spatial(dancer = "Anitha", dancer = "Lisa", relation = "in_front_of")',
        ["sh7"],
    ),
    (
        'find scenes where performs_same(dancer = "Anitha", dancer = "Lisa")'
        ' and spatial(dancer = "Anitha", dancer = "Lisa", relation = "in_front_of")',
        ["sc2"],
    ),
    ('find scenes where reflexion = "sad"', ["sc1", "sc2"]),
    ('find cscenes where dancer = "Lisa"', ["cs1"]),
]


@pytest.fixture(params=ENGINES, ids=["sequential", "indexed"], scope="module")
def f1_engine(request, f1):
    return request.param(f1)


@pytest.mark.parametrize("text, expected", F1_CASES)
def test_fixture_results(f1_engine, text, expected):
    assert f1_engine.execute_text(text) == expected


def test_execute_matches_execute_text(f1_engine):
    text = 'find scenes where dancer = "Lisa"'
    assert f1_engine.execute(parse_query(text)) == f1_engine.execute_text(text)


# --------------------------------------------------------------------------
# Pairing applies only to step, step_class, posture, reflexion


def pin_doc():
    """Two dancers share a shot on different steps; the accompaniment sits
    on Mina's occurrence. Distinguishes occurrence-level pairing from plain
    shot intersection.
    """
    doc = small_doc()
    doc["step_defs"].append(
        {
            "id": "a2",
            "step_class": "AD",
            "name": "Wave",
            "movement": "arms sweep overhead",
            "body_parts": ["arms", "hands"],
        }
    )
    for occ in doc["shots"][1]["occurrences"]:
        if occ["dancer_id"] == "d1":
            occ["step_def_id"] = "a2"
            occ["instrument_id"] = "i1"
    return doc


@pytest.mark.parametrize("engine_cls", ENGINES, ids=["sequential", "indexed"])
def test_non_pairable_facets_intersect_at_shot_level(engine_cls):
    engine = engine_cls(doc_to_corpus(pin_doc()))
    # Mina never uses her legs in h2; Tara does, and that is enough.
    assert engine.execute_text('find shots where dancer = "Mina" and body_part = "legs"') == ["h2"]
    # The violin accompanies Mina's occurrence, not Tara's.
    assert engine.execute_text('find shots where dancer = "Tara" and instrument = "Violin"') == ["h2"]


@pytest.mark.parametrize("engine_cls", ENGINES, ids=["sequential", "indexed"])
def test_pairable_facets_bind_to_the_dancer(engine_cls):
    engine = engine_cls(doc_to_corpus(pin_doc()))
    # Tara faces right in h2; Mina is the one facing left.
    assert engine.execute_text('find shots where dancer = "Tara" and posture = "left"') == []
    assert engine.execute_text('find shots where dancer = "Mina" and posture = "left"') == ["h2"]


def test_pairable_facet_set_is_pinned():
    assert PAIRABLE_FACETS == {"step", "step_class", "posture", "reflexion"}


# --------------------------------------------------------------------------
# Name resolution


@pytest.mark.parametrize("engine_cls", ENGINES, ids=["sequential", "indexed"])
@pytest.mark.parametrize(
    "text",
    [
        'find shots where follows(dancer = "Anitha", dancer = "Ghost")',
        'find shots where equals(dancer = "Ghost", dancer = "Lisa")',
        'find shots where spatial(dancer = "Ghost", dancer = "Lisa", relation = "near")',
        'find shots where follows(dancer = "Anitha", dancer = "Lisa", step = "Moonwalk")',
    ],
)
def test_unknown_names_in_relation_calls_raise(engine_cls, f1, text):
    engine = engine_cls(f1)
    with pytest.raises(UnknownNameError):
        engine.execute_text(text)


def test_unknown_step_class_in_relation_is_empty_not_error(f1_engine):
    # no CS step definitions exist in the fixture; the class itself is valid
    text = 'find shots where equals(dancer = "Anitha", dancer = "Lisa", step_class = "cs")'
    assert f1_engine.execute_text(text) == []


def test_shots_for_body_rejects_foreign_objects(f1_engine):
    with pytest.raises(TypeError):
        f1_engine.shots_for_body(42)


# --------------------------------------------------------------------------
# Synonyms


@pytest.mark.parametrize("engine_cls", ENGINES, ids=["sequential", "indexed"])
def test_synonym_override_from_environment(engine_cls, f1, monkeypatch):
    monkeypatch.setenv("DVCM_SYNONYMS", '{"sad": ["excited"]}')
    engine = engine_cls(f1)
    assert engine.execute_text('find shots where reflexion = "sad"') == [
        "sh1",
        "sh4",
        "sh6",
        "sh7",
        "sh8",
        "sh9",
    ]
    # the override replaces the default table entirely
    assert engine.execute_text('find shots where reflexion = "romantic"') == [
        "sh2",
        "sh5",
    ]


@pytest.mark.parametrize("engine_cls", ENGINES, ids=["sequential", "indexed"])
def test_malformed_synonym_environment_raises(engine_cls, f1, monkeypatch):
    monkeypatch.setenv("DVCM_SYNONYMS", "{nope")
    with pytest.raises(ValueError, match="DVCM_SYNONYMS"):
        engine_cls(f1)


@pytest.mark.parametrize("engine_cls", ENGINES, ids=["sequential", "indexed"])
def test_explicit_synonym_table_beats_environment(engine_cls, f1, monkeypatch):
    monkeypatch.setenv("DVCM_SYNONYMS", "{nope")
    engine = engine_cls(f1, synonyms={"sad": ("excited",)})
    assert engine.execute_text('find shots where reflexion = "sad"') == [
        "sh1",
        "sh4",
        "sh6",
        "sh7",
        "sh8",
        "sh9",
    ]


# --------------------------------------------------------------------------
# Engine equivalence and algebra on a generated corpus


def test_engines_agree_on_random_workload(medium_corpus):
    sequential = SequentialScanEngine(medium_corpus)
    indexed = IndexedEngine(medium_corpus)
    vocabulary = collect_vocabulary(medium_corpus)
    rng = CounterRng(99, "engine-equivalence")
    for _ in range(150):
        query = random_containment_query(vocabulary, rng)
        assert sequential.execute(query) == indexed.execute(query), format_query(query)


def test_temporal_pruning_resolves_each_dancer_once(medium_corpus, monkeypatch):
    resolved = []
    resolve = IndexSet.shots_of_occurrences

    def counting(index, occ_ids):
        resolved.append(occ_ids)
        return resolve(index, occ_ids)

    monkeypatch.setattr(IndexSet, "shots_of_occurrences", counting)
    sequential = SequentialScanEngine(medium_corpus)
    indexed = IndexedEngine(medium_corpus)
    names = sorted({normalize_key(d.name) for d in medium_corpus.dancers.values()})
    pairs = list(zip(names, names[1:] + names[:1]))
    for relation in (*DANCER_RELATIONS, *ALLEN_RELATIONS):
        for a, b in pairs:
            body = parse_query(f'find shots where {relation}(dancer = "{a}", dancer = "{b}")').body
            assert indexed.shots_for_body(body) == sequential.shots_for_body(body), relation
    # one resolution per dancer, made by the first query that names it
    assert len(resolved) == len(names)


def test_or_is_union_and_is_intersection(medium_corpus):
    engine = SequentialScanEngine(medium_corpus)
    vocabulary = collect_vocabulary(medium_corpus)
    rng = CounterRng(7, "algebra")
    for _ in range(60):
        left = random_containment_query(vocabulary, rng).body
        right = random_containment_query(vocabulary, rng).body
        left_shots = engine.shots_for_body(left)
        right_shots = engine.shots_for_body(right)
        assert engine.shots_for_body(Or(left, right)) == left_shots | right_shots
        combined = engine.shots_for_body(And(left, right))
        assert combined <= left_shots & right_shots
        if not _is_pairable_and(left, right):
            assert combined == left_shots & right_shots


def _is_pairable_and(left, right):
    def dancer_atom(node):
        return isinstance(node, FacetAtom) and node.facet == "dancer"

    def pairable_atom(node):
        return isinstance(node, FacetAtom) and node.facet in PAIRABLE_FACETS

    return (dancer_atom(left) and pairable_atom(right)) or (
        dancer_atom(right) and pairable_atom(left)
    )


def test_granularity_lifting_is_consistent(medium_corpus):
    engine = IndexedEngine(medium_corpus)
    body = parse_query('find shots where posture = "front"').body
    shots = set(engine.execute(Query(Granularity.SHOT, body)))
    scenes = engine.execute(Query(Granularity.SCENE, body))
    expected_scenes = sorted({medium_corpus.scene_of_shot(s).id for s in shots})
    assert scenes == expected_scenes


def test_spatiotemporal_order_does_not_change_results(f1_engine):
    temporal = parse_query(
        'find shots where performs_same(dancer = "Anitha", dancer = "Lisa")'
    ).body
    spatial = parse_query(
        "find shots where spatial"
        '(dancer = "Anitha", dancer = "Lisa", relation = "in_front_of")'
    ).body
    one = f1_engine.execute(Query(Granularity.SHOT, SpatioTemporal(temporal, spatial)))
    two = f1_engine.execute(Query(Granularity.SHOT, SpatioTemporal(spatial, temporal)))
    assert one == two == ["sh7"]
