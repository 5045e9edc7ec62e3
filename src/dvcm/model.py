"""Domain model for annotated dance videos.

The annotation hierarchy is video -> compound scene -> scene -> shot. A shot
records which dancers are on screen, one step occurrence per performing
dancer (a dancer may be present with no occurrence: an observer), and a list
of spatial triplets. Scenes carry a song-component label (PA/AP/SA/CH),
a background and per-dancer costume sets; compound scenes tie a scene
sequence to a song; videos own compound scenes.

A corpus file is a single UTF-8 JSON document with top-level arrays
"videos", "songs", "musicians", "dancers", "backgrounds", "costumes",
"instruments", "step_defs", "compound_scenes", "scenes" and "shots".
Each entity is an object keyed by its dataclass field names. Intervals are
serialized as {"start": int, "end": int}, maps as arrays of
{"dancer_id": ..., "values": [...]} pairs. Unknown fields are rejected. A
field whose annotation ends in "| None" is optional: it may be omitted or
null on input, and is always written, as null when unset. Files are
written as json.dumps(document, indent=2, sort_keys=True) writes them, so
they are ASCII, with catalogs sorted by ID. Parsers and writers are
generated from the dataclass fields (see "Codec" below).

Entities are frozen, slotted dataclasses, and corpora are immutable after
loading; every operation here is a pure read.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_string
from operator import attrgetter, itemgetter

# Defined in vocab, so that a query answered from an index needs none of
# this module; re-exported as part of the model.
from .vocab import (
    SONG_COMPONENTS,
    SPATIAL_RELATIONS,
    STEP_CLASSES,
    CorpusFormatError,
    Granularity,
    IntegrityError,
    _sha256,
)

# Body parts a PY step may use.
PY_BODY_PARTS = frozenset(
    {"head", "eye", "eyebrow", "nose", "lips", "neck", "chest", "sides"}
)

# Seed posture vocabulary; postures and reflexions are open term sets.
DEFAULT_POSTURES = ("front", "left", "right", "back")


@dataclass(frozen=True)
class Violation:
    """One integrity-rule failure, attributed to an entity."""

    rule: str
    entity_id: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.entity_id}: {self.detail}"


class UnknownIdError(LookupError):
    """An identifier does not resolve in the corpus."""


@dataclass(frozen=True, slots=True)
class TimeInterval:
    """Closed interval in integer ticks (milliseconds from video start)."""

    start: int
    end: int

    def is_valid(self) -> bool:
        return 0 <= self.start <= self.end


@dataclass(frozen=True, slots=True)
class Dancer:
    id: str
    name: str
    age: int
    sex: str


@dataclass(frozen=True, slots=True)
class StepDefinition:
    """A named dance step: one of the four classical classes or a casual step."""

    id: str
    step_class: str
    name: str
    movement: str
    body_parts: frozenset[str]


@dataclass(frozen=True, slots=True)
class StepOccurrence:
    """One dancer performing one step in one shot; the unit of retrieval."""

    occ_id: str
    shot_id: str
    dancer_id: str
    step_def_id: str
    posture: str
    reflexion: str
    instrument_id: str | None = None


@dataclass(frozen=True, slots=True)
class SpatialTriplet:
    dancer1: str
    dancer2: str
    relation: str


@dataclass(frozen=True, slots=True)
class Shot:
    id: str
    scene_id: str
    life_span: TimeInterval
    dancer_ids: frozenset[str]
    occurrences: tuple[StepOccurrence, ...]
    spatial_triplets: tuple[SpatialTriplet, ...]
    description: str

    def occurrence_of(self, dancer_id: str) -> StepOccurrence | None:
        for occ in self.occurrences:
            if occ.dancer_id == dancer_id:
                return occ
        return None


@dataclass(frozen=True, slots=True)
class Scene:
    """Abstraction of one song component; owns an ordered shot sequence."""

    id: str
    compound_scene_id: str
    life_span: TimeInterval
    component: str
    background_id: str
    costume_map: tuple[tuple[str, frozenset[str]], ...]
    shot_ids: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class CompoundScene:
    id: str
    video_id: str
    song_id: str
    scene_ids: tuple[str, ...]
    description: str


@dataclass(frozen=True, slots=True)
class Video:
    id: str
    life_span: TimeInterval
    recording_date: datetime.date
    description: str
    compound_scene_ids: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Song:
    id: str
    name: str
    lyrics: str
    musician_id: str


@dataclass(frozen=True, slots=True)
class Musician:
    id: str
    name: str
    address: str
    sex: str
    phone: str


@dataclass(frozen=True, slots=True)
class Background:
    id: str
    name: str
    location: str
    location_existence: TimeInterval | None
    description: str


@dataclass(frozen=True, slots=True)
class Costume:
    id: str
    name: str
    description: str


@dataclass(frozen=True, slots=True)
class Instrument:
    id: str
    name: str
    description: str


@dataclass
class Corpus:
    """The immutable annotation store: entity catalogs keyed by ID.

    One derived lookup table, the occurrence IDs of each step definition,
    is built on first use and never mutated afterwards; the fingerprint is
    set by ``load_corpus`` from the file's bytes, or cached on first use.
    Both are excluded from equality so that structural equality is defined
    purely by the annotated data. The occurrence-to-shot map lives in the
    index (``IndexSet.shot_of_occurrence``).
    """

    videos: dict[str, Video] = field(default_factory=dict)
    songs: dict[str, Song] = field(default_factory=dict)
    musicians: dict[str, Musician] = field(default_factory=dict)
    dancers: dict[str, Dancer] = field(default_factory=dict)
    backgrounds: dict[str, Background] = field(default_factory=dict)
    costumes: dict[str, Costume] = field(default_factory=dict)
    instruments: dict[str, Instrument] = field(default_factory=dict)
    step_defs: dict[str, StepDefinition] = field(default_factory=dict)
    compound_scenes: dict[str, CompoundScene] = field(default_factory=dict)
    scenes: dict[str, Scene] = field(default_factory=dict)
    shots: dict[str, Shot] = field(default_factory=dict)

    # step_def_id -> sorted occ ids, built on first use
    _occs_by_step_def: dict[str, tuple[str, ...]] | None = field(
        default=None, init=False, compare=False, repr=False
    )
    # corpus_fingerprint's value: the file's hash, or cached on first use
    _fingerprint: str | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def shot(self, shot_id: str) -> Shot:
        try:
            return self.shots[shot_id]
        except KeyError:
            raise UnknownIdError(f"unknown shot ID: {shot_id!r}") from None

    def scene(self, scene_id: str) -> Scene:
        try:
            return self.scenes[scene_id]
        except KeyError:
            raise UnknownIdError(f"unknown scene ID: {scene_id!r}") from None

    def occ_ids_for_step_def(self, step_def_id: str) -> tuple[str, ...]:
        """Occurrence IDs of a step definition, read off its usage record.

        Kept for the benchmark's trace counts (``perfbench/layers.py``);
        the indexed engine reads the index's step files instead.
        """
        if self._occs_by_step_def is None:
            by_step: dict[str, list[str]] = {}
            for shot in self.shots.values():
                for occ in shot.occurrences:
                    by_step.setdefault(occ.step_def_id, []).append(occ.occ_id)
            self._occs_by_step_def = {sid: tuple(sorted(ids)) for sid, ids in by_step.items()}
        return self._occs_by_step_def.get(step_def_id, ())

    def scene_of_shot(self, shot_id: str) -> Scene:
        return self.scene(self.shot(shot_id).scene_id)


def is_subinterval(inner: TimeInterval, outer: TimeInterval) -> bool:
    """True iff inner lies within outer (non-strict on both boundaries)."""
    return outer.start <= inner.start and outer.end >= inner.end


def lift_granularity(
    corpus: Corpus, shot_ids: set[str] | frozenset[str], vg: Granularity
) -> list[str]:
    """Map a shot-ID set to the requested granularity.

    Shot level returns the input sorted and deduplicated; scene and compound
    scene levels return the owning scene / compound scene IDs. The result is
    always ascending and duplicate-free. Raises UnknownIdError for a shot ID
    that does not resolve.
    """
    if vg is Granularity.SHOT:
        for sid in shot_ids:
            corpus.shot(sid)
        return sorted(set(shot_ids))
    if vg is Granularity.SCENE:
        return sorted({corpus.shot(sid).scene_id for sid in shot_ids})
    if vg is Granularity.COMPOUND_SCENE:
        return sorted(
            {corpus.scene_of_shot(sid).compound_scene_id for sid in shot_ids}
        )
    raise ValueError(f"unsupported granularity: {vg!r}")


def expand_scenes_to_shots(corpus: Corpus, scene_ids: set[str]) -> set[str]:
    """All shot IDs owned by the given scenes."""
    out: set[str] = set()
    for sid in scene_ids:
        out.update(corpus.scene(sid).shot_ids)
    return out


# --------------------------------------------------------------------------
# Song types
#
# A song is an ordered sequence of components: PA (pallavi), AP
# (anupallavi), SA (saranam) and CH (chores). Six structures are recognized:
#
#     type 1: PA AP SA+            type 4: PA AP SA (CH SA)+
#     type 2: PA SA+               type 5: PA SA (CH SA)+
#     type 3: SA+                  type 6: SA (CH SA)+
#
# Types 4-6 are their plain counterpart with a chores block after every
# saranam repetition. The six languages are pairwise disjoint, so a sequence
# has at most one type.
#
# Classification runs a single left-to-right pass over the sequence through
# a small DFA. The opening (PA AP | PA | nothing) fixes a family register
# (1, 2 or 3) when the first SA arrives; the suffix after that first SA
# decides plain (SA*) versus chores ((CH SA)+) and the final type is the
# family, plus 3 for the chores variants. Validation checks every compound
# scene against it, so it lives with the integrity rules.

# DFA states. OPEN_* consume the optional PA / PA AP prefix, TAIL_* consume
# the part from the first SA onward. DEAD is the sink for rejected input.
_START = "start"
_OPEN_PA = "after-pa"
_OPEN_AP = "after-pa-ap"
_TAIL_ONE_SA = "one-sa"
_TAIL_MANY_SA = "many-sa"
_TAIL_CHORES = "in-chores"
_TAIL_CHORES_SA = "chores-closed"
_DEAD = "dead"

# state -> component -> state; missing entries go to _DEAD.
_TRANSITIONS: dict[str, dict[str, str]] = {
    _START: {"PA": _OPEN_PA, "SA": _TAIL_ONE_SA},
    _OPEN_PA: {"AP": _OPEN_AP, "SA": _TAIL_ONE_SA},
    _OPEN_AP: {"SA": _TAIL_ONE_SA},
    _TAIL_ONE_SA: {"SA": _TAIL_MANY_SA, "CH": _TAIL_CHORES},
    _TAIL_MANY_SA: {"SA": _TAIL_MANY_SA},
    _TAIL_CHORES: {"SA": _TAIL_CHORES_SA},
    _TAIL_CHORES_SA: {"CH": _TAIL_CHORES, "SA": _DEAD},
    _DEAD: {},
}

# Family register fixed on the first SA: which prefix was consumed.
_FAMILY_AT_FIRST_SA = {_START: 3, _OPEN_PA: 2, _OPEN_AP: 1}


def classify_song_type(components: Iterable[str]) -> int | None:
    """Song type (1..6) of a component sequence, or None if it matches none.

    Raises ValueError for tokens outside PA/AP/SA/CH.
    """
    state = _START
    family = 0
    for comp in components:
        if comp not in SONG_COMPONENTS:
            raise ValueError(f"unknown song component: {comp!r}")
        if state in _FAMILY_AT_FIRST_SA and comp == "SA":
            family = _FAMILY_AT_FIRST_SA[state]
        state = _TRANSITIONS[state].get(comp, _DEAD)
    if state in (_TAIL_ONE_SA, _TAIL_MANY_SA):
        return family
    if state == _TAIL_CHORES_SA:
        return family + 3
    return None


# --------------------------------------------------------------------------
# Validation

def validate_corpus(corpus: Corpus) -> list[Violation]:
    """Check every integrity rule; an empty list means the corpus is closed.

    Violations carry the offending entity ID and a stable rule name, and all
    of them are reported, not just the first.
    """
    out: list[Violation] = []

    def bad(rule: str, entity_id: str, detail: str) -> None:
        out.append(Violation(rule, entity_id, detail))

    def check_interval(iv: TimeInterval, owner: str) -> None:
        if not iv.is_valid():
            bad(
                "interval-bounds",
                owner,
                f"interval [{iv.start}, {iv.end}] must satisfy 0 <= start <= end",
            )

    for dancer in corpus.dancers.values():
        if dancer.age < 0:
            bad("dancer-age", dancer.id, f"age {dancer.age} is negative")

    for sd in corpus.step_defs.values():
        if sd.step_class not in STEP_CLASSES:
            bad("step-body-parts", sd.id, f"unknown step class {sd.step_class!r}")
            continue
        if sd.step_class == "PY" and not sd.body_parts <= PY_BODY_PARTS:
            extra = sorted(sd.body_parts - PY_BODY_PARTS)
            bad("step-body-parts", sd.id, f"PY step uses disallowed parts {extra}")
        if sd.step_class in ("AD", "SHA") and len(sd.body_parts) != 2:
            bad(
                "step-body-parts",
                sd.id,
                f"{sd.step_class} step needs exactly 2 body parts, has {len(sd.body_parts)}",
            )
        if sd.step_class == "ASHA" and len(sd.body_parts) != 1:
            bad(
                "step-body-parts",
                sd.id,
                f"ASHA step needs exactly 1 body part, has {len(sd.body_parts)}",
            )

    for song in corpus.songs.values():
        if song.musician_id not in corpus.musicians:
            bad("dangling-reference", song.id, f"musician {song.musician_id!r}")

    for bg in corpus.backgrounds.values():
        if bg.location_existence is not None:
            check_interval(bg.location_existence, bg.id)

    # Ownership maps for hierarchy-link checks.
    scene_owner_of_shot: dict[str, list[str]] = {}
    cscene_owner_of_scene: dict[str, list[str]] = {}
    video_owner_of_cscene: dict[str, list[str]] = {}

    for video in corpus.videos.values():
        check_interval(video.life_span, video.id)
        for cid in video.compound_scene_ids:
            if cid not in corpus.compound_scenes:
                bad("dangling-reference", video.id, f"compound scene {cid!r}")
            else:
                video_owner_of_cscene.setdefault(cid, []).append(video.id)

    for cs in corpus.compound_scenes.values():
        if cs.video_id not in corpus.videos:
            bad("dangling-reference", cs.id, f"video {cs.video_id!r}")
        if cs.song_id not in corpus.songs:
            bad("dangling-reference", cs.id, f"song {cs.song_id!r}")
        owners = video_owner_of_cscene.get(cs.id, [])
        if owners != [cs.video_id]:
            bad(
                "hierarchy-link",
                cs.id,
                f"listed by videos {owners}, references {cs.video_id!r}",
            )
        components: list[str] = []
        broken = False
        for sid in cs.scene_ids:
            if sid not in corpus.scenes:
                bad("dangling-reference", cs.id, f"scene {sid!r}")
                broken = True
            else:
                cscene_owner_of_scene.setdefault(sid, []).append(cs.id)
                components.append(corpus.scenes[sid].component)
        if not broken:
            if classify_song_type(components) is None:
                bad(
                    "song-type",
                    cs.id,
                    f"component sequence {components} matches no song type",
                )

    for scene in corpus.scenes.values():
        check_interval(scene.life_span, scene.id)
        if scene.component not in SONG_COMPONENTS:
            bad("song-type", scene.id, f"unknown component {scene.component!r}")
        if scene.compound_scene_id not in corpus.compound_scenes:
            bad(
                "dangling-reference",
                scene.id,
                f"compound scene {scene.compound_scene_id!r}",
            )
        owners = cscene_owner_of_scene.get(scene.id, [])
        if owners != [scene.compound_scene_id]:
            bad(
                "hierarchy-link",
                scene.id,
                f"listed by compound scenes {owners}, references "
                f"{scene.compound_scene_id!r}",
            )

        scene_dancers: set[str] = set()
        prev_shot: Shot | None = None
        for shot_id in scene.shot_ids:
            if shot_id not in corpus.shots:
                bad("dangling-reference", scene.id, f"shot {shot_id!r}")
                continue
            scene_owner_of_shot.setdefault(shot_id, []).append(scene.id)
            shot = corpus.shots[shot_id]
            scene_dancers.update(shot.dancer_ids)
            if not is_subinterval(shot.life_span, scene.life_span):
                bad(
                    "shot-interval",
                    shot.id,
                    f"shot interval [{shot.life_span.start}, {shot.life_span.end}] "
                    f"exceeds scene {scene.id}",
                )
            if prev_shot is not None and prev_shot.life_span.end > shot.life_span.start:
                bad(
                    "shot-ordering",
                    scene.id,
                    f"shots {prev_shot.id} and {shot.id} overlap or are out of order",
                )
            prev_shot = shot

        for dancer_id, costume_ids in scene.costume_map:
            if dancer_id not in scene_dancers:
                bad(
                    "costume-map-keys",
                    scene.id,
                    f"costume entry for {dancer_id!r}, absent from the scene's shots",
                )
            if dancer_id not in corpus.dancers:
                bad("dangling-reference", scene.id, f"dancer {dancer_id!r}")
            for cid in costume_ids:
                if cid not in corpus.costumes:
                    bad("dangling-reference", scene.id, f"costume {cid!r}")
        if scene.background_id not in corpus.backgrounds:
            bad("dangling-reference", scene.id, f"background {scene.background_id!r}")

    for shot in corpus.shots.values():
        check_interval(shot.life_span, shot.id)
        if shot.scene_id not in corpus.scenes:
            bad("dangling-reference", shot.id, f"scene {shot.scene_id!r}")
        owners = scene_owner_of_shot.get(shot.id, [])
        if owners != [shot.scene_id]:
            bad(
                "hierarchy-link",
                shot.id,
                f"listed by scenes {owners}, references {shot.scene_id!r}",
            )
        for did in shot.dancer_ids:
            if did not in corpus.dancers:
                bad("dangling-reference", shot.id, f"dancer {did!r}")

        seen_dancers: set[str] = set()
        for occ in shot.occurrences:
            if occ.shot_id != shot.id:
                bad(
                    "occurrence-shot",
                    shot.id,
                    f"occurrence {occ.occ_id} names shot {occ.shot_id!r}",
                )
            if occ.dancer_id in seen_dancers:
                bad(
                    "occurrence-uniqueness",
                    shot.id,
                    f"dancer {occ.dancer_id!r} has more than one occurrence",
                )
            seen_dancers.add(occ.dancer_id)
            if occ.dancer_id not in shot.dancer_ids:
                bad(
                    "occurrence-dancer-presence",
                    shot.id,
                    f"occurrence {occ.occ_id} for dancer {occ.dancer_id!r} "
                    "not in dancer_ids",
                )
            if occ.dancer_id not in corpus.dancers:
                bad("dangling-reference", shot.id, f"dancer {occ.dancer_id!r}")
            if occ.step_def_id not in corpus.step_defs:
                bad("dangling-reference", shot.id, f"step def {occ.step_def_id!r}")
            if occ.instrument_id is not None and occ.instrument_id not in corpus.instruments:
                bad("dangling-reference", shot.id, f"instrument {occ.instrument_id!r}")

        for trip in shot.spatial_triplets:
            if trip.dancer1 == trip.dancer2:
                bad(
                    "triplet-dancers",
                    shot.id,
                    f"triplet relates {trip.dancer1!r} to itself",
                )
            if trip.relation not in SPATIAL_RELATIONS:
                bad("triplet-dancers", shot.id, f"unknown relation {trip.relation!r}")
            for did in (trip.dancer1, trip.dancer2):
                if did not in shot.dancer_ids:
                    bad(
                        "triplet-dancers",
                        shot.id,
                        f"triplet dancer {did!r} not present in the shot",
                    )

    # Occurrence IDs must be unique corpus-wide: they key the step index.
    seen_occ: dict[str, str] = {}
    for shot in corpus.shots.values():
        for occ in shot.occurrences:
            if occ.occ_id in seen_occ and seen_occ[occ.occ_id] != shot.id:
                bad(
                    "duplicate-id",
                    occ.occ_id,
                    f"occurrence ID reused in shots {seen_occ[occ.occ_id]} and {shot.id}",
                )
            seen_occ.setdefault(occ.occ_id, shot.id)

    return out


# --------------------------------------------------------------------------
# Codec
#
# Both directions are derived from the dataclass fields. A field's
# annotation (a string, under the __future__ import) picks its parse and
# write functions from _CODECS; an annotation ending in "| None" marks the
# field optional. Parse functions raise CorpusFormatError with a location
# relative to the value they were given, and every enclosing level prefixes
# its own part ("[3]", ".posture", "shots") as the error passes outward, so a
# location string is only built when a check fails.
#
# Each record class gets one parser, generated with exec as straight-line
# code over its fields, the way dataclasses generate their own methods; it
# builds the slotted entity by filling its slots directly. A string array is
# accepted with one C-level check of all its items; only when that check
# fails does the item-by-item parser run, to locate the bad item.
#
# Write functions emit, without building a document, the text that
# json.dumps(document, indent=2, sort_keys=True) gives: json runs an
# indented dump in its pure-Python encoder, since the C one cannot indent.
# A write function takes the value and the newline and indentation of the
# line the value starts on, and returns the value's text. As in json,
# strings go through the C encode_basestring_ascii, so every file is ASCII,
# and ints through int.__repr__.

# Top-level arrays of a corpus document and the entity each one holds.
_CATALOGS = {
    "videos": Video,
    "songs": Song,
    "musicians": Musician,
    "dancers": Dancer,
    "backgrounds": Background,
    "costumes": Costume,
    "instruments": Instrument,
    "step_defs": StepDefinition,
    "compound_scenes": CompoundScene,
    "scenes": Scene,
    "shots": Shot,
}

# String fields restricted to a fixed vocabulary, by field name.
_ALLOWED_VALUES = {"step_class": STEP_CLASSES, "component": SONG_COMPONENTS}


def _within(prefix: str, exc: CorpusFormatError) -> CorpusFormatError:
    return CorpusFormatError(prefix + exc.location, exc.message)


def _expected(what: str, value) -> CorpusFormatError:
    return CorpusFormatError("", f"expected {what}, got {type(value).__name__}")


def _str(value) -> str:
    if isinstance(value, str):
        return value
    raise _expected("string", value)


def _int(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _expected("integer", value)


def _date(value) -> datetime.date:
    # YYYY-MM-DD only; from Python 3.11 on, fromisoformat also takes the
    # basic (20100305) and week-date (2010-W09-5) forms
    try:
        parsed = datetime.date.fromisoformat(_str(value))
        if parsed.isoformat() == value:
            return parsed
    except ValueError:
        pass
    raise CorpusFormatError("", f"invalid date {value!r}")


def _not_one_of(allowed: tuple[str, ...], value) -> CorpusFormatError:
    if not isinstance(value, str):
        return _expected("string", value)
    return CorpusFormatError("", f"expected one of {list(allowed)}, got {value!r}")


def _split_optional(annotation: str) -> tuple[str, bool]:
    """A field is optional exactly when its annotation ends in "| None"."""
    base = annotation.removesuffix(" | None")
    return base, base != annotation


def _record_parser(specs: tuple[tuple[str, str], ...], cls=None):
    """Parse a JSON object whose fields are (name, annotation) pairs.

    The result is an instance of ``cls``, a slotted dataclass with these
    fields, or, when ``cls`` is None, the tuple of values in ``specs`` order.
    The parser is generated as straight-line code with one block per field,
    in ``specs`` order, so the first bad field in that order is the one
    reported. Plain ``str`` and ``int`` fields and the fixed vocabularies
    are checked inline; the others, and optional fields, go through _CODECS.
    """
    names = tuple(name for name, _ in specs)
    allowed = frozenset(names)
    required = frozenset(name for name, ann in specs if not _split_optional(ann)[1])

    def key_error(keys) -> CorpusFormatError:
        unknown = keys - allowed
        if unknown:
            return CorpusFormatError("", f"unknown field(s) {sorted(unknown)}")
        missing = next(name for name in names if name in required and name not in keys)
        return CorpusFormatError("", f"missing field {missing!r}")

    namespace = {
        "allowed": allowed,
        "required": required,
        "key_error": key_error,
        "expected": _expected,
        "not_one_of": _not_one_of,
        "within": _within,
        "CorpusFormatError": CorpusFormatError,
    }
    body = [
        "if not isinstance(obj, dict):",
        '    raise expected("object", obj)',
        "keys = obj.keys()",
        "if keys != allowed and not (keys <= allowed and keys >= required):",
        "    raise key_error(keys)",
    ]
    for name, ann in specs:
        base, optional = _split_optional(ann)
        v = f"v_{name}"
        if optional or (base not in ("str", "int") and name not in _ALLOWED_VALUES):
            namespace[f"parse_{name}"] = _CODECS[base][0]
            block = [
                "try:",
                f"    {v} = parse_{name}({v})",
                "except CorpusFormatError as exc:",
                f'    raise within(".{name}", exc) from None',
            ]
            if optional:
                body += [f"{v} = obj.get({name!r})", f"if {v} is not None:"]
                body += ["    " + line for line in block]
            else:
                body += [f"{v} = obj[{name!r}]", *block]
            continue
        if name in _ALLOWED_VALUES:
            namespace[f"allowed_{name}"] = _ALLOWED_VALUES[name]
            check = f"{v} in allowed_{name}"
            error = f"not_one_of(allowed_{name}, {v})"
        elif base == "str":
            check = f"isinstance({v}, str)"
            error = f'expected("string", {v})'
        else:
            check = f"isinstance({v}, int) and not isinstance({v}, bool)"
            error = f'expected("integer", {v})'
        body += [f"{v} = obj[{name!r}]", f"if not ({check}):", f'    raise within(".{name}", {error})']
    if cls is None:
        body.append(f"return ({', '.join(f'v_{name}' for name in names)},)")
    else:
        # fill the slots through their member descriptors, as the frozen
        # __init__ does through object.__setattr__, without calling it:
        # half the cost of building an entity (no entity has __post_init__)
        namespace["new"] = object.__new__
        namespace["cls"] = cls
        body.append("r = new(cls)")
        for name in names:
            namespace[f"set_{name}"] = cls.__dict__[name].__set__
            body.append(f"set_{name}(r, v_{name})")
        body.append("return r")
    exec("def parse(obj):\n" + "".join(f"    {line}\n" for line in body), namespace)
    return namespace["parse"]


def _array_parser(parse_item, order=None):
    """Parse a JSON array item by item into a tuple, sorted by ``order`` if given."""

    def parse(value) -> tuple:
        if not isinstance(value, list):
            raise _expected("array", value)
        out: list = []
        append = out.append
        try:
            for item in value:
                append(parse_item(item))
        except CorpusFormatError as exc:
            raise _within(f"[{len(out)}]", exc) from None
        if order is not None:
            out.sort(key=order)
        return tuple(out)

    return parse


def _write_strings(values, nl: str) -> str:
    """A string array in the given order."""
    if not values:
        return "[]"
    inner = nl + "  "
    return f"[{inner}{(',' + inner).join(map(_json_string, values))}{nl}]"


def _array_writer(write_item):
    """Write a tuple as an array of the items ``write_item`` writes."""

    def write(values, nl: str) -> str:
        if not values:
            return "[]"
        inner = nl + "  "
        return f"[{inner}{(',' + inner).join([write_item(v, inner) for v in values])}{nl}]"

    return write


def _optional_writer(write):
    return lambda value, nl: "null" if value is None else write(value, nl)


def _record_writer(specs: tuple[tuple[str, str], ...], *, unpack: bool = False):
    """Write a record whose fields are (name, annotation) pairs as an object.

    The record's fields are read as attributes, or, with ``unpack``, by
    unpacking it in ``specs`` order. The writer is generated as one f-string
    over the fields in sorted-name order, as dataclasses generate their own
    methods. Plain ``str`` and ``int`` fields are written inline; the others
    go through _CODECS.
    """
    namespace = {"string": _json_string, "integer": int.__repr__}
    parts = []
    for name, ann in sorted(specs):
        base, optional = _split_optional(ann)
        value = name if unpack else f"r.{name}"
        if base in ("str", "int") and not optional:
            text = f"{'string' if base == 'str' else 'integer'}({value})"
        else:
            write = _CODECS[base][1]
            namespace[f"write_{name}"] = _optional_writer(write) if optional else write
            text = f"write_{name}({value}, n)"
        parts.append("{n}" + _json_string(name) + ": {" + text + "}")
    unpacked = ", ".join(name for name, _ in specs)
    source = (
        "def write(r, nl):\n"
        + (f"    {unpacked}, = r\n" if unpack else "")
        + '    n = nl + "  "\n'
        + "    return f'{{" + ",".join(parts) + "{nl}}}'\n"
    )
    exec(source, namespace)
    return namespace["write"]


def _record_codec(cls):
    """Parse and write functions for a dataclass, derived from its fields."""
    specs = tuple((f.name, f.type) for f in fields(cls))
    return _record_parser(specs, cls), _record_writer(specs)


def _nested_records(cls, order):
    """Codec for an array of records nested in an entity, kept sorted by ``order``."""
    parse, write = _record_codec(cls)
    return _array_parser(parse, order), _array_writer(write)


_string_items = _array_parser(_str)


def _string_array(into):
    """Parse a string array into ``into``, checking every item in one C call.

    The per-item parser runs only when that check fails, to locate the error.
    """

    def parse(value):
        if not (isinstance(value, list) and all(map(isinstance, value, repeat(str)))):
            _string_items(value)  # raises, naming the bad item
        return into(value)

    return parse


# A scene's costume map: {"dancer_id", "values"} objects, kept sorted by dancer.
_COSTUME_ENTRY = (("dancer_id", "str"), ("values", "frozenset[str]"))

# Field annotation -> (parse, write).
_CODECS = {
    "str": (_str, lambda value, nl: _json_string(value)),
    "int": (_int, lambda value, nl: int.__repr__(value)),
    "datetime.date": (_date, lambda value, nl: _json_string(value.isoformat())),
    "tuple[str, ...]": (_string_array(tuple), _write_strings),
    "frozenset[str]": (
        _string_array(frozenset),
        lambda values, nl: _write_strings(sorted(values), nl),
    ),
}
_CODECS["TimeInterval"] = _record_codec(TimeInterval)
_CODECS["tuple[StepOccurrence, ...]"] = _nested_records(StepOccurrence, attrgetter("occ_id"))
_CODECS["tuple[SpatialTriplet, ...]"] = _nested_records(
    SpatialTriplet, attrgetter("dancer1", "relation", "dancer2")
)
_CODECS["tuple[tuple[str, frozenset[str]], ...]"] = (
    _array_parser(
        _record_parser(_COSTUME_ENTRY),
        itemgetter(0),
    ),
    _array_writer(_record_writer(_COSTUME_ENTRY, unpack=True)),
)

_CATALOG_CODECS = {key: _record_codec(cls) for key, cls in _CATALOGS.items()}


def parse_corpus_document(doc) -> Corpus:
    """Build a Corpus from a decoded JSON document, collecting duplicate IDs.

    Raises CorpusFormatError for structural problems and IntegrityError when
    the parsed corpus violates integrity rules (duplicates, dangling
    references, interval rules); every violation is listed.
    """
    if not isinstance(doc, dict):
        raise CorpusFormatError("$", "top level must be an object")
    unknown = set(doc) - set(_CATALOGS)
    if unknown:
        raise CorpusFormatError("$", f"unknown top-level key(s) {sorted(unknown)}")
    for key in _CATALOGS:
        if key not in doc:
            raise CorpusFormatError("$", f"missing top-level array {key!r}")

    dup_violations: list[Violation] = []

    def catalog(kind: str, items: list) -> dict:
        table: dict[str, object] = {}
        for item in items:
            if item.id in table:
                dup_violations.append(
                    Violation("duplicate-id", item.id, f"duplicate {kind} ID")
                )
            else:
                table[item.id] = item
        return table

    tables = {}
    for key, (parse, _) in _CATALOG_CODECS.items():
        try:
            items = _array_parser(parse)(doc[key])
        except CorpusFormatError as exc:
            raise _within(key, exc) from None
        tables[key] = catalog(key[:-1].replace("_", " "), items)
    corpus = Corpus(**tables)

    violations = dup_violations + validate_corpus(corpus)
    if violations:
        raise IntegrityError(violations)
    return corpus


def loads_corpus(text: str) -> Corpus:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"line {exc.lineno}, col {exc.colno}", exc.msg) from None
    except RecursionError:
        raise CorpusFormatError("$", "nested too deeply to decode") from None
    return parse_corpus_document(doc)


def load_corpus(path) -> Corpus:
    """Load, parse and fully validate a corpus file.

    The fingerprint of the returned corpus is the SHA-256 of the file's
    bytes, taken here while they are at hand (see ``corpus_fingerprint``).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    fingerprint = _sha256((data,))
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"byte {exc.start}", f"not UTF-8: {exc.reason}") from None
    del data
    corpus = loads_corpus(text)
    corpus._fingerprint = fingerprint
    return corpus


def corpus_chunks(corpus: Corpus) -> Iterator[str]:
    """The text of the corpus file, one entity to a chunk.

    Catalogs are sorted by ID. The chunks join to ``dumps_corpus``; the
    savers write them one by one, so the whole text is never held at once.
    """
    nl = "\n    "
    head = "{"
    for key in sorted(_CATALOGS):
        write = _CATALOG_CODECS[key][1]
        table = getattr(corpus, key)
        if not table:
            yield f"{head}\n  {_json_string(key)}: []"
        else:
            sep = f"{head}\n  {_json_string(key)}: [{nl}"
            for entity_id in sorted(table):
                yield sep + write(table[entity_id], nl)
                sep = "," + nl
            yield "\n  ]"
        head = ","
    yield "\n}\n"


def dumps_corpus(corpus: Corpus) -> str:
    return "".join(corpus_chunks(corpus))


def corpus_document(corpus: Corpus) -> dict:
    """The corpus file's JSON document, decoded: the corpus as plain data.

    Nothing in the package calls it; it is for callers that read a corpus
    as JSON values, such as a benchmark's query generator.
    """
    return json.loads(dumps_corpus(corpus))


def write_text_atomic(path, chunks: Iterable[str]) -> None:
    """Write the chunks of a text to path by way of ``<path>.tmp`` and a rename.

    An interrupted or failed write, including one raised by the chunk
    source, leaves the previous file, or none, in place and removes the
    temporary file.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_corpus(corpus: Corpus, path) -> None:
    write_text_atomic(path, corpus_chunks(corpus))


def corpus_fingerprint(corpus: Corpus) -> str:
    """SHA-256 of the corpus file's bytes.

    A corpus read by ``load_corpus`` carries the hash of the file it was
    read from. A corpus built in memory is hashed as the chunks of the file
    ``save_corpus`` writes, so a file dvcm wrote and the corpus it was
    written from agree. Indexes pin this value, so an index belongs to the
    exact bytes of one corpus file. It is computed once per corpus object
    and cached, since corpora are immutable after construction.
    """
    if corpus._fingerprint is None:
        corpus._fingerprint = _sha256(chunk.encode("utf-8") for chunk in corpus_chunks(corpus))
    return corpus._fingerprint
