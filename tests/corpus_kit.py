"""Shared test material: a small valid corpus document, independent oracles
for the song grammar, interval algebra and dancer relations, and witness
re-validation. The oracles are deliberately written from the definitions
with their own structure so they can disagree with the package when the
package is wrong.
"""

from __future__ import annotations

import re

from dvcm.model import Corpus, parse_corpus_document
from dvcm.temporal import ALLEN_RELATIONS, Witness


def small_doc() -> dict:
    """A fresh, minimal, fully valid corpus document.

    One video, one song, one scene of two shots: a solo gaze shot and a
    two-dancer stamp shot with a spatial triplet. Tests mutate the returned
    dict; every call builds a new one.
    """
    return {
        "videos": [
            {
                "id": "v1",
                "life_span": {"start": 0, "end": 2000},
                "recording_date": "2010-03-05",
                "description": "practice clip",
                "compound_scene_ids": ["g1"],
            }
        ],
        "songs": [
            {"id": "s1", "name": "Opening", "lyrics": "la la", "musician_id": "m1"}
        ],
        "musicians": [
            {
                "id": "m1",
                "name": "Ravi",
                "address": "1 Hill Road",
                "sex": "male",
                "phone": "555-0100",
            }
        ],
        "dancers": [
            {"id": "d1", "name": "Mina", "age": 25, "sex": "female"},
            {"id": "d2", "name": "Tara", "age": 31, "sex": "female"},
        ],
        "backgrounds": [
            {
                "id": "b1",
                "name": "Courtyard",
                "location": "Mysore",
                "location_existence": None,
                "description": "stone courtyard",
            }
        ],
        "costumes": [
            {"id": "c1", "name": "Gold Border", "description": "gold border sari"}
        ],
        "instruments": [
            {"id": "i1", "name": "Violin", "description": "bowed strings"}
        ],
        "step_defs": [
            {
                "id": "p1",
                "step_class": "PY",
                "name": "Gaze",
                "movement": "eyes sweep left to right",
                "body_parts": ["eye"],
            },
            {
                "id": "a1",
                "step_class": "AD",
                "name": "Stamp",
                "movement": "weight shifts between feet",
                "body_parts": ["legs", "feet"],
            },
        ],
        "compound_scenes": [
            {
                "id": "g1",
                "video_id": "v1",
                "song_id": "s1",
                "scene_ids": ["x1"],
                "description": "only song",
            }
        ],
        "scenes": [
            {
                "id": "x1",
                "compound_scene_id": "g1",
                "life_span": {"start": 0, "end": 2000},
                "component": "SA",
                "background_id": "b1",
                "costume_map": [{"dancer_id": "d1", "values": ["c1"]}],
                "shot_ids": ["h1", "h2"],
            }
        ],
        "shots": [
            {
                "id": "h1",
                "scene_id": "x1",
                "life_span": {"start": 0, "end": 1000},
                "dancer_ids": ["d1"],
                "occurrences": [
                    {
                        "occ_id": "h1-d1",
                        "shot_id": "h1",
                        "dancer_id": "d1",
                        "step_def_id": "p1",
                        "posture": "front",
                        "reflexion": "happy",
                        "instrument_id": "i1",
                    }
                ],
                "spatial_triplets": [],
                "description": "solo gaze",
            },
            {
                "id": "h2",
                "scene_id": "x1",
                "life_span": {"start": 1000, "end": 2000},
                "dancer_ids": ["d1", "d2"],
                "occurrences": [
                    {
                        "occ_id": "h2-d1",
                        "shot_id": "h2",
                        "dancer_id": "d1",
                        "step_def_id": "a1",
                        "posture": "left",
                        "reflexion": "sad",
                    },
                    {
                        "occ_id": "h2-d2",
                        "shot_id": "h2",
                        "dancer_id": "d2",
                        "step_def_id": "a1",
                        "posture": "right",
                        "reflexion": "sad",
                    },
                ],
                "spatial_triplets": [
                    {"dancer1": "d1", "dancer2": "d2", "relation": "near"}
                ],
                "description": "pair stamp",
            },
        ],
    }


def doc_to_corpus(doc: dict) -> Corpus:
    return parse_corpus_document(doc)


def occurrence_ids(corpus: Corpus) -> tuple[str, ...]:
    """Every occurrence ID of the corpus, sorted."""
    return tuple(
        sorted(occ.occ_id for shot in corpus.shots.values() for occ in shot.occurrences)
    )


# --------------------------------------------------------------------------
# Song grammar oracle: regular expressions over single-letter encodings.

SONG_LETTER = {"PA": "P", "AP": "A", "SA": "S", "CH": "C"}

SONG_ORACLE_PATTERNS = {
    1: re.compile(r"PAS+"),
    2: re.compile(r"PS+"),
    3: re.compile(r"S+"),
    4: re.compile(r"PAS(?:CS)+"),
    5: re.compile(r"PS(?:CS)+"),
    6: re.compile(r"S(?:CS)+"),
}


def oracle_song_types(components) -> list[int]:
    """Every song type whose pattern fully matches the component sequence."""
    word = "".join(SONG_LETTER[c] for c in components)
    return [t for t, pat in SONG_ORACLE_PATTERNS.items() if pat.fullmatch(word)]


# --------------------------------------------------------------------------
# Interval algebra oracle: one endpoint predicate per relation.

ALLEN_ORACLE_PREDICATES = {
    "before": lambda s1, e1, s2, e2: e1 < s2,
    "meets": lambda s1, e1, s2, e2: e1 == s2,
    "overlaps": lambda s1, e1, s2, e2: s1 < s2 < e1 < e2,
    "starts": lambda s1, e1, s2, e2: s1 == s2 and e1 < e2,
    "during": lambda s1, e1, s2, e2: s2 < s1 and e1 < e2,
    "finishes": lambda s1, e1, s2, e2: s2 < s1 and e1 == e2,
    "equals": lambda s1, e1, s2, e2: s1 == s2 and e1 == e2,
    "after": lambda s1, e1, s2, e2: e2 < s1,
    "met_by": lambda s1, e1, s2, e2: e2 == s1,
    "overlapped_by": lambda s1, e1, s2, e2: s2 < s1 < e2 < e1,
    "started_by": lambda s1, e1, s2, e2: s1 == s2 and e2 < e1,
    "contains": lambda s1, e1, s2, e2: s1 < s2 and e2 < e1,
    "finished_by": lambda s1, e1, s2, e2: s1 < s2 and e1 == e2,
}

assert set(ALLEN_ORACLE_PREDICATES) == set(ALLEN_RELATIONS)


def oracle_allen_names(i1, i2) -> list[str]:
    """Every relation whose predicate holds; a correct algebra gives one."""
    return [
        name
        for name, pred in ALLEN_ORACLE_PREDICATES.items()
        if pred(i1.start, i1.end, i2.start, i2.end)
    ]


# --------------------------------------------------------------------------
# Dancer relation oracle: result shot sets straight from the definitions.

def _timeline(corpus: Corpus, scene, dancer_id: str) -> list[tuple]:
    """(shot, step_def_id) pairs for the dancer's occurrences, scene order."""
    pairs = []
    for shot_id in scene.shot_ids:
        shot = corpus.shots[shot_id]
        for occ in shot.occurrences:
            if occ.dancer_id == dancer_id:
                pairs.append((shot, occ.step_def_id))
    return pairs


def oracle_dancer_relation_shots(
    corpus: Corpus,
    scene,
    relation: str,
    dancer_a: str,
    dancer_b: str,
    allowed_steps=None,
) -> set[str]:
    ok = (lambda s: True) if allowed_steps is None else (lambda s: s in allowed_steps)
    ta = _timeline(corpus, scene, dancer_a)
    tb = _timeline(corpus, scene, dancer_b)
    out: set[str] = set()

    if relation in ("follows", "repeats"):
        for sa, pa in ta:
            for sb, pb in tb:
                if sa.id == sb.id or pa != pb or not ok(pa):
                    continue
                if relation == "follows" and sa.life_span.end == sb.life_span.start:
                    out |= {sa.id, sb.id}
                if relation == "repeats" and sa.life_span.end < sb.life_span.start:
                    out |= {sa.id, sb.id}

    elif relation in ("follows_sequence", "repeats_sequence"):
        def pair_ok(pos_a, pos_b):
            (sa, pa), (sb, pb) = pos_a, pos_b
            if sa.id == sb.id or pa != pb or not ok(pa):
                return False
            if relation == "follows_sequence":
                return sa.life_span.end == sb.life_span.start
            return sa.life_span.end < sb.life_span.start

        if ta and len(ta) == len(tb) and all(map(pair_ok, ta, tb)):
            out = {s.id for s, _ in ta} | {s.id for s, _ in tb}

    elif relation in ("performs_same", "performs_different"):
        for sa, pa in ta:
            for sb, pb in tb:
                if sa.id != sb.id or not ok(pa):
                    continue
                if relation == "performs_same" and pa == pb:
                    out.add(sa.id)
                if relation == "performs_different" and pa != pb:
                    out.add(sa.id)

    elif relation in ("performs_same_sequence", "performs_different_sequence"):
        shared = [
            (sa, pa, pb) for sa, pa in ta for sb, pb in tb if sa.id == sb.id
        ]
        same = relation == "performs_same_sequence"
        if shared and all(
            (pa == pb if same else pa != pb) and ok(pa) for _, pa, pb in shared
        ):
            out = {s.id for s, _, _ in shared}

    elif relation == "observes":
        a_performs = {s.id for s, _ in ta}
        b_steps = {s.id: p for s, p in tb}
        for shot_id in scene.shot_ids:
            shot = corpus.shots[shot_id]
            if (
                dancer_a in shot.dancer_ids
                and shot_id not in a_performs
                and shot_id in b_steps
                and ok(b_steps[shot_id])
            ):
                out.add(shot_id)

    else:
        raise ValueError(f"oracle does not know relation {relation!r}")

    return out


def oracle_allen_shots(
    corpus: Corpus,
    scene,
    relation: str,
    dancer_a: str,
    dancer_b: str,
    allowed_steps=None,
) -> set[str]:
    pred = ALLEN_ORACLE_PREDICATES[relation]
    out: set[str] = set()
    for sa, pa in _timeline(corpus, scene, dancer_a):
        if sa.life_span.start >= sa.life_span.end:
            continue
        if allowed_steps is not None and pa not in allowed_steps:
            continue
        for sb, _pb in _timeline(corpus, scene, dancer_b):
            if sb.life_span.start >= sb.life_span.end:
                continue
            if pred(
                sa.life_span.start, sa.life_span.end,
                sb.life_span.start, sb.life_span.end,
            ):
                out |= {sa.id, sb.id}
    return out


# --------------------------------------------------------------------------
# Witness re-validation.

def assert_witness_valid(corpus: Corpus, w: Witness) -> None:
    """Re-check a witness against the raw annotations, from the definitions."""
    scene = corpus.scenes[w.scene_id]
    assert set(w.shots_a) <= set(scene.shot_ids), w
    assert set(w.shots_b) <= set(scene.shot_ids), w

    def step_of(shot_id: str, dancer_id: str) -> str:
        occ = corpus.shots[shot_id].occurrence_of(dancer_id)
        assert occ is not None, f"{dancer_id} does not perform in {shot_id}: {w}"
        return occ.step_def_id

    def span(shot_id: str):
        return corpus.shots[shot_id].life_span

    r = w.relation
    if r in ("follows", "repeats"):
        (sa,), (sb,), (step,) = w.shots_a, w.shots_b, w.step_def_ids
        assert sa != sb, w
        assert step_of(sa, w.dancer_a) == step == step_of(sb, w.dancer_b), w
        if r == "follows":
            assert span(sa).end == span(sb).start, w
        else:
            assert span(sa).end < span(sb).start, w

    elif r in ("follows_sequence", "repeats_sequence"):
        assert len(w.shots_a) == len(w.shots_b) == len(w.step_def_ids) >= 1, w
        for sa, sb, step in zip(w.shots_a, w.shots_b, w.step_def_ids):
            assert sa != sb, w
            assert step_of(sa, w.dancer_a) == step == step_of(sb, w.dancer_b), w
            if r == "follows_sequence":
                assert span(sa).end == span(sb).start, w
            else:
                assert span(sa).end < span(sb).start, w

    elif r in ("performs_same", "performs_different"):
        assert w.shots_a == w.shots_b and len(w.shots_a) == 1, w
        (sid,), (step,) = w.shots_a, w.step_def_ids
        assert step_of(sid, w.dancer_a) == step, w
        if r == "performs_same":
            assert step_of(sid, w.dancer_b) == step, w
        else:
            assert step_of(sid, w.dancer_b) != step, w

    elif r in ("performs_same_sequence", "performs_different_sequence"):
        assert w.shots_a == w.shots_b, w
        assert len(w.shots_a) == len(w.step_def_ids) >= 1, w
        for sid, step in zip(w.shots_a, w.step_def_ids):
            assert step_of(sid, w.dancer_a) == step, w
            if r == "performs_same_sequence":
                assert step_of(sid, w.dancer_b) == step, w
            else:
                assert step_of(sid, w.dancer_b) != step, w

    elif r == "observes":
        assert w.shots_a == w.shots_b and len(w.shots_a) == 1, w
        (sid,) = w.shots_a
        shot = corpus.shots[sid]
        assert w.dancer_a in shot.dancer_ids, w
        assert shot.occurrence_of(w.dancer_a) is None, w
        assert step_of(sid, w.dancer_b) == w.step_def_ids[0], w

    elif r in ALLEN_RELATIONS:
        (sa,), (sb,), (step,) = w.shots_a, w.shots_b, w.step_def_ids
        assert step_of(sa, w.dancer_a) == step, w
        step_of(sb, w.dancer_b)
        assert oracle_allen_names(span(sa), span(sb)) == [r], w

    else:
        raise AssertionError(f"witness with unknown relation: {w}")
