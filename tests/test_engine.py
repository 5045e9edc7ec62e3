"""Query engines: frozen fixture results, pairing semantics, equivalence."""

import contextlib
import dataclasses
import io
import json
import tempfile

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from corpus_kit import doc_to_corpus, small_doc, widened_corpora
from dvcm.bench import collect_vocabulary, random_containment_query
from dvcm import cli
from dvcm.engine import (
    PAIRABLE_FACETS,
    IndexedEngine,
    SequentialScanEngine,
    UnknownNameError,
)
from dvcm.generator import CounterRng, GenParams, generate_corpus
from dvcm.index import build_index, dumps_index, loads_index
import dvcm.model
from dvcm.model import SPATIAL_RELATIONS, Granularity, save_corpus
from dvcm.normalize import normalize_key
from dvcm.qlang import (
    And,
    FacetAtom,
    Or,
    STEP_CLASS_TERMS,
    Query,
    SpatialRel,
    SpatioTemporal,
    TemporalRel,
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


@st.composite
def _whole_language_cases(draw):
    """A small generated corpus and queries over the whole language.

    Each case holds one temporal query per relation, with a drawn step=,
    step_class= or no constraint; one spatial query per relation and
    performing value; spatio-temporal conjunctions in both orders; and
    containment queries, each at a drawn granularity. Some corpora give
    two dancers one normalized name, so a name stands for several IDs.
    Every corpus is widened (``widened_corpora``): shot IDs out of scene
    order, degenerate shots, more watching dancers, and a dancer and a step
    definition without occurrences.
    """
    weights = draw(st.lists(st.integers(0, 3), min_size=6, max_size=6).filter(any))
    corpus = generate_corpus(
        GenParams(
            n_shots=draw(st.integers(1, 40)),
            n_dancers=draw(st.integers(2, 5)),
            n_step_defs=draw(st.integers(1, 6)),
            song_type_weights=tuple(weights),
            shots_per_scene_range=draw(st.sampled_from([(1, 1), (1, 3), (2, 8), (6, 12)])),
            seed=draw(st.integers(0, 2**16)),
        )
    )
    if len(corpus.dancers) >= 3 and draw(st.booleans()):
        first, second = sorted(corpus.dancers)[:2]
        dancers = dict(corpus.dancers)
        twin = f"  {dancers[first].name.upper()} "
        dancers[second] = dataclasses.replace(dancers[second], name=twin)
        corpus = dataclasses.replace(corpus, dancers=dancers)
    corpus = draw(widened_corpora(corpus))
    # a relation call names two different dancers
    pairs = st.lists(
        st.sampled_from(sorted({normalize_key(d.name) for d in corpus.dancers.values()})),
        min_size=2,
        max_size=2,
        unique=True,
    )
    steps = sorted({normalize_key(sd.name) for sd in corpus.step_defs.values()})
    granularities = st.sampled_from(list(Granularity))

    def temporal(relation):
        constraint = draw(st.sampled_from(["none", "step", "step_class"]))
        return TemporalRel(
            relation,
            *draw(pairs),
            step=draw(st.sampled_from(steps)) if constraint == "step" else None,
            step_class=draw(st.sampled_from(STEP_CLASS_TERMS))
            if constraint == "step_class"
            else None,
        )

    name_of = {d.id: normalize_key(d.name) for d in corpus.dancers.values()}
    stored = {}
    for shot in corpus.shots.values():
        for trip in shot.spatial_triplets:
            pair = [name_of[trip.dancer1], name_of[trip.dancer2]]
            if pair[0] != pair[1]:
                stored.setdefault(trip.relation, []).append(pair)

    def spatial(relation, performing):
        # most relations hold nowhere for a random pair; half the calls
        # name the dancers of a stored triplet
        if relation in stored and draw(st.booleans()):
            return SpatialRel(relation, *draw(st.sampled_from(stored[relation])), performing)
        return SpatialRel(relation, *draw(pairs), performing)

    bodies = [temporal(r) for r in (*DANCER_RELATIONS, *ALLEN_RELATIONS)]
    bodies += [spatial(r, p) for r in sorted(SPATIAL_RELATIONS) for p in (False, True)]
    for _ in range(2):
        pair = [
            temporal(draw(st.sampled_from((*DANCER_RELATIONS, *ALLEN_RELATIONS)))),
            spatial(draw(st.sampled_from(sorted(SPATIAL_RELATIONS))), draw(st.booleans())),
        ]
        if draw(st.booleans()):
            pair.reverse()
        bodies.append(SpatioTemporal(*pair))
    rng = CounterRng(draw(st.integers(0, 2**16)), "whole-language")
    vocabulary = collect_vocabulary(corpus)
    bodies += [random_containment_query(vocabulary, rng).body for _ in range(3)]
    return corpus, [Query(draw(granularities), body) for body in bodies]


def _cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


# No shrink phase: each example builds a corpus and runs about 40 queries
# down three paths, so shrinking one failure took minutes of CPU. A failure
# is reported as generated, with at most 40 shots.
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(_whole_language_cases())
def test_engines_and_cli_agree_on_the_whole_language(case):
    corpus, queries = case
    sequential = SequentialScanEngine(corpus)
    indexed = IndexedEngine(corpus)
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path, index_path = f"{tmp}/corpus.json", f"{tmp}/corpus.index.json"
        save_corpus(corpus, corpus_path)
        assert _cli("index", corpus_path, "-o", index_path)[0] == 0
        for query in queries:
            text = format_query(query)
            assert parse_query(text) == query, text
            expected = sequential.execute(query)
            assert indexed.execute(query) == expected, text
            assert indexed.shots_for_body(query.body) == sequential.shots_for_body(query.body)
            code, out = _cli("query", corpus_path, text, "--index", index_path, "--format", "json")
            assert code == 0 and json.loads(out)["ids"] == expected, text


class _CountingGets(dict):
    """A posting file that records every key looked up with ``get``."""

    def __init__(self, table, gets):
        super().__init__(table)
        self.gets = gets

    def get(self, key, default=None):
        self.gets.append(key)
        return super().get(key, default)


def test_temporal_pruning_resolves_each_dancer_once(medium_corpus):
    resolved = []
    index = build_index(medium_corpus)
    counting = dataclasses.replace(index, dancers=_CountingGets(index.dancers, resolved))
    sequential = SequentialScanEngine(medium_corpus)
    indexed = IndexedEngine(medium_corpus, counting)
    names = sorted({normalize_key(d.name) for d in medium_corpus.dancers.values()})
    pairs = list(zip(names, names[1:] + names[:1]))
    for relation in (*DANCER_RELATIONS, *ALLEN_RELATIONS):
        for a, b in pairs:
            body = parse_query(f'find shots where {relation}(dancer = "{a}", dancer = "{b}")').body
            assert indexed.shots_for_body(body) == sequential.shots_for_body(body), relation
    # one resolution per dancer, made by the first query that names it
    assert sorted(resolved) == names


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


def _scene_order_doc() -> dict:
    """One scene whose order is m1 t1 m2 t2: Mina performs in m1 and m2,
    Tara in t1 and t2, each of Tara's shots starting where the shot of
    Mina's before it ends, on the same step. By ID, Mina's two shots sort
    the other way round ("b" < "c" but m2 < m1)."""
    doc = small_doc()
    ids = {"m1": "c", "t1": "x", "m2": "b", "t2": "y"}
    dancer_of = {"m1": "d1", "t1": "d2", "m2": "d1", "t2": "d2"}
    doc["shots"] = [
        {
            "id": ids[name],
            "scene_id": "x1",
            "life_span": {"start": 500 * k, "end": 500 * (k + 1)},
            "dancer_ids": [dancer_of[name]],
            "occurrences": [{
                "occ_id": f"{ids[name]}-{dancer_of[name]}",
                "shot_id": ids[name],
                "dancer_id": dancer_of[name],
                "step_def_id": "a1",
                "posture": "front",
                "reflexion": "calm",
            }],
            "spatial_triplets": [],
            "description": name,
        }
        for k, name in enumerate(("m1", "t1", "m2", "t2"))
    ]
    doc["scenes"][0]["shot_ids"] = [ids[name] for name in ("m1", "t1", "m2", "t2")]
    return doc


@pytest.mark.parametrize("engine_cls", ENGINES, ids=["sequential", "indexed"])
def test_sequences_pair_shots_in_scene_order_not_id_order(engine_cls):
    engine = engine_cls(doc_to_corpus(_scene_order_doc()))
    text = 'find shots where follows_sequence(dancer = "Mina", dancer = "Tara")'
    assert engine.execute_text(text) == ["b", "c", "x", "y"]
    text = 'find shots where repeats_sequence(dancer = "Mina", dancer = "Tara")'
    assert engine.execute_text(text) == []


def test_indexed_engine_runs_from_the_index_alone(medium_corpus):
    # the same answers with and without the corpus, which it never reads
    index = loads_index(dumps_index(build_index(medium_corpus)))
    with_corpus = IndexedEngine(medium_corpus, index)
    alone = IndexedEngine(None, index)
    names = sorted({normalize_key(d.name) for d in medium_corpus.dancers.values()})
    for relation in ("follows", "observes", "equals"):
        text = f'find scenes where {relation}(dancer = "{names[0]}", dancer = "{names[1]}")'
        assert alone.execute_text(text) == with_corpus.execute_text(text)
    assert alone.corpus is None and with_corpus.corpus is medium_corpus
    with pytest.raises(TypeError):
        IndexedEngine(None)


def test_indexed_engine_built_from_a_corpus_never_hashes_it(monkeypatch, f1):
    def refuse(corpus):
        raise AssertionError("the corpus was hashed")

    monkeypatch.setattr(dvcm.model, "corpus_fingerprint", refuse)
    engine = IndexedEngine(dataclasses.replace(f1))
    assert engine.index.fingerprint == ""
    assert engine.execute_text('find shots where instrument = "Veena"') == ["sh1"]
