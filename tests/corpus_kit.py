"""Shared test material: a small valid corpus document, a strategy drawing
small valid corpus documents, independent oracles for the song grammar,
interval algebra and dancer relations, witness re-validation, and an index
file's content as one editable document. The oracles are deliberately
written from the definitions with their own structure so they can disagree
with the package when the package is wrong.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import re

from hypothesis import strategies as st

from dvcm.index import IndexSet
from dvcm.model import SPATIAL_RELATIONS, Corpus, dumps_corpus, parse_corpus_document
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


@st.composite
def widened_corpora(draw, corpus: Corpus) -> Corpus:
    """The corpus with the cases a generated one lacks or seldom has.

    Shot IDs are permuted, so ID order is not scene order; some shots
    become degenerate (start == end); some shots gain an on-screen dancer
    without an occurrence; and a dancer and a step definition with no
    occurrence join the catalogs, each under a new name or one it shares.
    """
    doc = json.loads(dumps_corpus(corpus))
    shots = doc["shots"]
    rename = dict(zip((shot["id"] for shot in shots), draw(st.permutations(
        [shot["id"] for shot in shots]))))
    for scene in doc["scenes"]:
        scene["shot_ids"] = [rename[shot_id] for shot_id in scene["shot_ids"]]
    dancer_names = [d["name"] for d in doc["dancers"]]
    doc["dancers"].append({
        "id": "d0000-idle",
        "name": draw(st.sampled_from(dancer_names + ["Idle Dancer"])),
        "age": 30,
        "sex": "female",
    })
    step_names = [sd["name"] for sd in doc["step_defs"]]
    doc["step_defs"].append({
        "id": "st0000-unused",
        "step_class": "CS",
        "name": draw(st.sampled_from(step_names + ["Unused Step"])),
        "movement": "never performed",
        "body_parts": [],
    })
    dancer_ids = [d["id"] for d in doc["dancers"]]
    for shot in shots:
        shot["id"] = rename[shot["id"]]
        for occ in shot["occurrences"]:
            occ["shot_id"] = shot["id"]
        if draw(st.booleans()):
            shot["life_span"]["end"] = shot["life_span"]["start"]
        watcher = draw(st.sampled_from(dancer_ids))
        if draw(st.booleans()) and watcher not in shot["dancer_ids"]:
            shot["dancer_ids"].append(watcher)
    return doc_to_corpus(doc)


# Strings a JSON writer must escape or pass through as \u escapes: quotes,
# backslashes, control characters, non-ASCII and astral-plane characters.
AWKWARD_STRINGS = ('"', "\\", 'a"b\\c', "\x00", "\x1f\t\n\r", "\x7f", "é", "\u2028", "\U0001f483")

texts = st.text(max_size=6) | st.sampled_from(AWKWARD_STRINGS)

# Component sequences that match a song type.
_SONG_SEQUENCES = (("SA",), ("SA", "SA"), ("PA", "SA"), ("PA", "AP", "SA", "CH", "SA"))


def empty_doc() -> dict:
    """A corpus document with every catalog empty."""
    return {key: [] for key in small_doc()}


@st.composite
def corpus_documents(draw) -> dict:
    """A small valid corpus document with drawn strings, numbers and sizes.

    Every string field that no integrity rule constrains is drawn from
    ``texts``; IDs are drawn too, after a per-catalog ordinal that keeps
    them unique. Every catalog below the video hierarchy may be empty, and
    so may optional fields, arrays and sets; ``empty_doc`` has no entity.
    """

    def ids(n: int) -> list[str]:
        return [f"{i}:{draw(texts)}" for i in range(n)]

    def some(pool) -> list:
        return draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []

    def interval() -> dict:
        start = draw(st.integers(0, 2**40))
        return {"start": start, "end": start + draw(st.integers(0, 1000))}

    def named(n: int, *fields: str) -> list[dict]:
        return [{"id": i, **{f: draw(texts) for f in fields}} for i in ids(n)]

    dancers = [
        {**dancer, "age": draw(st.integers(0, 2**63))}
        for dancer in named(draw(st.integers(0, 3)), "name", "sex")
    ]
    dancer_ids = [d["id"] for d in dancers]
    costumes = named(draw(st.integers(0, 2)), "name", "description")
    instruments = named(draw(st.integers(0, 2)), "name", "description")
    musicians = named(1, "name", "address", "sex", "phone")
    songs = [
        {**song, "musician_id": draw(st.sampled_from(musicians))["id"]}
        for song in named(draw(st.integers(1, 2)), "name", "lyrics")
    ]
    backgrounds = [
        {**bg, "location_existence": None if draw(st.booleans()) else interval()}
        for bg in named(draw(st.integers(1, 2)), "name", "location", "description")
    ]
    step_defs = [
        {**sd, "step_class": "CS", "body_parts": draw(st.lists(texts, max_size=3, unique=True))}
        for sd in named(draw(st.integers(0, 2)), "name", "movement")
    ]

    videos, compound_scenes, scenes, shots = [], [], [], []
    occ_ordinals = itertools.count()
    for video_id in ids(draw(st.integers(1, 2))):
        video = {
            "id": video_id,
            "life_span": interval(),
            "recording_date": draw(st.dates()).isoformat(),
            "description": draw(texts),
            "compound_scene_ids": [],
        }
        videos.append(video)
        for _ in range(draw(st.integers(0, 2))):
            cs_id = f"{len(compound_scenes)}:{draw(texts)}"
            video["compound_scene_ids"].append(cs_id)
            cs = {
                "id": cs_id,
                "video_id": video_id,
                "song_id": draw(st.sampled_from(songs))["id"],
                "scene_ids": [],
                "description": draw(texts),
            }
            compound_scenes.append(cs)
            for component in draw(st.sampled_from(_SONG_SEQUENCES)):
                scene_id = f"{len(scenes)}:{draw(texts)}"
                cs["scene_ids"].append(scene_id)
                scene_dancers: set[str] = set()
                shot_ids = []
                for k in range(draw(st.integers(0, 3))):
                    shot_id = f"{len(shots)}:{draw(texts)}"
                    shot_ids.append(shot_id)
                    present = some(dancer_ids)
                    scene_dancers.update(present)
                    occurrences = []
                    for dancer_id in some(present) if step_defs else []:
                        occ = {
                            "occ_id": f"{next(occ_ordinals)}:{draw(texts)}",
                            "shot_id": shot_id,
                            "dancer_id": dancer_id,
                            "step_def_id": draw(st.sampled_from(step_defs))["id"],
                            "posture": draw(texts),
                            "reflexion": draw(texts),
                        }
                        if instruments and draw(st.booleans()):
                            occ["instrument_id"] = draw(st.sampled_from(instruments))["id"]
                        occurrences.append(occ)
                    pairs = [(a, b) for a in present for b in present if a != b]
                    triplets = [
                        {
                            "dancer1": a,
                            "dancer2": b,
                            "relation": draw(st.sampled_from(sorted(SPATIAL_RELATIONS))),
                        }
                        for a, b in some(pairs)[:2]
                    ]
                    shots.append({
                        "id": shot_id,
                        "scene_id": scene_id,
                        "life_span": {"start": 10 * k, "end": 10 * k + draw(st.integers(0, 10))},
                        "dancer_ids": present,
                        "occurrences": occurrences,
                        "spatial_triplets": triplets,
                        "description": draw(texts),
                    })
                costume_ids = [c["id"] for c in costumes]
                scenes.append({
                    "id": scene_id,
                    "compound_scene_id": cs_id,
                    "life_span": {"start": 0, "end": 10 * len(shot_ids) + 10},
                    "component": component,
                    "background_id": draw(st.sampled_from(backgrounds))["id"],
                    "costume_map": [
                        {"dancer_id": dancer_id, "values": some(costume_ids)}
                        for dancer_id in some(sorted(scene_dancers))
                    ],
                    "shot_ids": shot_ids,
                })
    return {
        "videos": videos,
        "songs": songs,
        "musicians": musicians,
        "dancers": dancers,
        "backgrounds": backgrounds,
        "costumes": costumes,
        "instruments": instruments,
        "step_defs": step_defs,
        "compound_scenes": compound_scenes,
        "scenes": scenes,
        "shots": shots,
    }


def occurrence_ids(corpus: Corpus) -> tuple[str, ...]:
    """Every occurrence ID of the corpus, sorted."""
    return tuple(
        sorted(occ.occ_id for shot in corpus.shots.values() for occ in shot.occurrences)
    )


def occurrences_by_ordinal(corpus: Corpus) -> list:
    """Every occurrence, in the order of the index's occurrence ordinals:
    shots by ID, then each shot's own order."""
    return [occ for shot_id in sorted(corpus.shots) for occ in corpus.shots[shot_id].occurrences]


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


# --------------------------------------------------------------------------
# An index file as one document


def index_document(data: bytes) -> dict:
    """An index file's header fields, with each file's decoded value under
    ``"files"`` in place of its header entry."""
    line, _, body = data.partition(b"\n")
    doc = json.loads(line)
    doc["files"] = {
        name: json.loads(body[entry["offset"]:entry["offset"] + entry["length"]])
        for name, entry in doc["files"].items()
    }
    return doc


def _entries(value) -> int:
    if isinstance(value, dict):
        return sum(map(_entries, value.values()))
    return len(value) if isinstance(value, list) else 0


def seal_index(doc: dict) -> str:
    """The index file of a document, however edited: the files in field
    order, and a header whose offsets, lengths, entry counts and SHA-256s
    match them. So only the loader's checks of the content can refuse it."""
    order = [f.name for f in dataclasses.fields(IndexSet)[1:]]
    files = doc["files"]
    texts, entries, offset = [], {}, 0
    for name in sorted(files, key=lambda n: order.index(n) if n in order else len(order)):
        text = json.dumps(files[name], separators=(",", ":"), sort_keys=True) + "\n"
        data = text.encode("utf-8")
        entries[name] = {"entries": _entries(files[name]), "length": len(data),
                         "offset": offset, "sha256": hashlib.sha256(data).hexdigest()}
        texts.append(text)
        offset += len(data)
    header = {**doc, "files": entries}
    return json.dumps(header, separators=(",", ":"), sort_keys=True) + "\n" + "".join(texts)
