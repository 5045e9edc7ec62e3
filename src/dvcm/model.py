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
Intervals are serialized as {"start": int, "end": int}, maps as arrays of
{"dancer_id": ..., "values": [...]} pairs. Unknown fields are rejected.

Corpora are immutable after loading; every operation here is a pure read.
"""

from __future__ import annotations

import contextlib
import datetime
import enum
import hashlib
import json
import os
from dataclasses import dataclass, field

STEP_CLASSES = ("PY", "AD", "ASHA", "SHA", "CS")

# Body parts a PY step may use.
PY_BODY_PARTS = frozenset(
    {"head", "eye", "eyebrow", "nose", "lips", "neck", "chest", "sides"}
)

SONG_COMPONENTS = ("PA", "AP", "SA", "CH")

SPATIAL_RELATIONS = frozenset(
    {"left_of", "right_of", "in_front_of", "behind", "near", "meets"}
)

# Seed vocabularies; postures and reflexions are open term sets.
DEFAULT_POSTURES = ("front", "left", "right", "back")
DEFAULT_REFLEXIONS = ("sad", "happy", "delighted", "excited")


class Granularity(enum.Enum):
    """Result level of a query: shot, scene or compound scene."""

    SHOT = "shot"
    SCENE = "scene"
    COMPOUND_SCENE = "compound_scene"


class CorpusFormatError(Exception):
    """Raised when a corpus file is structurally malformed."""

    def __init__(self, location: str, message: str):
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}")


@dataclass(frozen=True)
class Violation:
    """One integrity-rule failure, attributed to an entity."""

    rule: str
    entity_id: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.entity_id}: {self.detail}"


class IntegrityError(Exception):
    """Raised by load_corpus when integrity rules fail; carries every violation."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"{len(violations)} integrity violation(s): {lines}")


class UnknownIdError(LookupError):
    """An identifier does not resolve in the corpus."""


@dataclass(frozen=True)
class TimeInterval:
    """Closed interval in integer ticks (milliseconds from video start)."""

    start: int
    end: int

    def is_valid(self) -> bool:
        return 0 <= self.start <= self.end


@dataclass(frozen=True)
class Dancer:
    id: str
    name: str
    age: int
    sex: str


@dataclass(frozen=True)
class StepDefinition:
    """A named dance step: one of the four classical classes or a casual step."""

    id: str
    step_class: str
    name: str
    movement: str
    body_parts: frozenset[str]


@dataclass(frozen=True)
class StepOccurrence:
    """One dancer performing one step in one shot; the unit of retrieval."""

    occ_id: str
    shot_id: str
    dancer_id: str
    step_def_id: str
    posture: str
    reflexion: str
    instrument_id: str | None = None


@dataclass(frozen=True)
class SpatialTriplet:
    dancer1: str
    dancer2: str
    relation: str


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Scene:
    """Abstraction of one song component; owns an ordered shot sequence."""

    id: str
    compound_scene_id: str
    life_span: TimeInterval
    component: str
    background_id: str
    costume_map: tuple[tuple[str, frozenset[str]], ...]
    shot_ids: tuple[str, ...]

    def costumes_of(self, dancer_id: str) -> frozenset[str]:
        for did, costumes in self.costume_map:
            if did == dancer_id:
                return costumes
        return frozenset()


@dataclass(frozen=True)
class CompoundScene:
    id: str
    video_id: str
    song_id: str
    scene_ids: tuple[str, ...]
    description: str


@dataclass(frozen=True)
class Video:
    id: str
    life_span: TimeInterval
    recording_date: datetime.date
    description: str
    compound_scene_ids: tuple[str, ...]


@dataclass(frozen=True)
class Song:
    id: str
    name: str
    lyrics: str
    musician_id: str


@dataclass(frozen=True)
class Musician:
    id: str
    name: str
    address: str
    sex: str
    phone: str


@dataclass(frozen=True)
class Background:
    id: str
    name: str
    location: str
    location_existence: TimeInterval | None
    description: str


@dataclass(frozen=True)
class Costume:
    id: str
    name: str
    description: str


@dataclass(frozen=True)
class Instrument:
    id: str
    name: str
    description: str


@dataclass
class Corpus:
    """The immutable annotation store: entity catalogs keyed by ID.

    Derived lookup tables (occurrence registry, step-definition usage) are
    built once at construction and never mutated afterwards; the fingerprint
    is cached on first use. They are excluded from equality so that
    structural equality is defined purely by the annotated data.
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

    # occ_id -> (occurrence, owning shot id); step_def_id -> sorted occ ids
    _occurrences: dict[str, tuple[StepOccurrence, str]] = field(
        default_factory=dict, compare=False, repr=False
    )
    _occs_by_step_def: dict[str, tuple[str, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )
    # corpus_fingerprint's cached value
    _fingerprint: str | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        self.rebuild_lookup_tables()

    def rebuild_lookup_tables(self) -> None:
        occurrences: dict[str, tuple[StepOccurrence, str]] = {}
        by_step: dict[str, list[str]] = {}
        for shot in self.shots.values():
            for occ in shot.occurrences:
                occurrences[occ.occ_id] = (occ, shot.id)
                by_step.setdefault(occ.step_def_id, []).append(occ.occ_id)
        self._occurrences = occurrences
        self._occs_by_step_def = {
            sid: tuple(sorted(ids)) for sid, ids in by_step.items()
        }
        self._fingerprint = None

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

    def dancer(self, dancer_id: str) -> Dancer:
        try:
            return self.dancers[dancer_id]
        except KeyError:
            raise UnknownIdError(f"unknown dancer ID: {dancer_id!r}") from None

    def occurrence(self, occ_id: str) -> StepOccurrence:
        try:
            return self._occurrences[occ_id][0]
        except KeyError:
            raise UnknownIdError(f"unknown occurrence ID: {occ_id!r}") from None

    def shot_of_occurrence(self, occ_id: str) -> str:
        try:
            return self._occurrences[occ_id][1]
        except KeyError:
            raise UnknownIdError(f"unknown occurrence ID: {occ_id!r}") from None

    def occurrence_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._occurrences))

    def occ_ids_for_step_def(self, step_def_id: str) -> tuple[str, ...]:
        """Occurrence IDs of a step definition, read off its usage record."""
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

    from .song_types import classify_song_type  # local import: avoid cycle

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
# Parsing

_TOP_LEVEL_KEYS = (
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
)


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise CorpusFormatError(where, f"missing field {key!r}")
    return obj[key]


def _check_fields(obj, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise CorpusFormatError(where, f"expected object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise CorpusFormatError(where, f"unknown field(s) {sorted(unknown)}")
    for key in required:
        if key not in obj:
            raise CorpusFormatError(where, f"missing field {key!r}")


def _str(value, where: str) -> str:
    if not isinstance(value, str):
        raise CorpusFormatError(where, f"expected string, got {type(value).__name__}")
    return value


def _int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CorpusFormatError(where, f"expected integer, got {type(value).__name__}")
    return value


def _str_list(value, where: str) -> list[str]:
    if not isinstance(value, list):
        raise CorpusFormatError(where, f"expected array, got {type(value).__name__}")
    return [_str(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _interval(value, where: str) -> TimeInterval:
    _check_fields(value, where, ("start", "end"))
    return TimeInterval(
        _int(value["start"], f"{where}.start"), _int(value["end"], f"{where}.end")
    )


def _date(value, where: str) -> datetime.date:
    text = _str(value, where)
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise CorpusFormatError(where, f"invalid date {text!r}") from None


def _occurrence(obj, where: str) -> StepOccurrence:
    _check_fields(
        obj,
        where,
        ("occ_id", "shot_id", "dancer_id", "step_def_id", "posture", "reflexion"),
        optional=("instrument_id",),
    )
    instrument = obj.get("instrument_id")
    if instrument is not None:
        instrument = _str(instrument, f"{where}.instrument_id")
    return StepOccurrence(
        occ_id=_str(obj["occ_id"], f"{where}.occ_id"),
        shot_id=_str(obj["shot_id"], f"{where}.shot_id"),
        dancer_id=_str(obj["dancer_id"], f"{where}.dancer_id"),
        step_def_id=_str(obj["step_def_id"], f"{where}.step_def_id"),
        posture=_str(obj["posture"], f"{where}.posture"),
        reflexion=_str(obj["reflexion"], f"{where}.reflexion"),
        instrument_id=instrument,
    )


def _triplet(obj, where: str) -> SpatialTriplet:
    _check_fields(obj, where, ("dancer1", "dancer2", "relation"))
    return SpatialTriplet(
        dancer1=_str(obj["dancer1"], f"{where}.dancer1"),
        dancer2=_str(obj["dancer2"], f"{where}.dancer2"),
        relation=_str(obj["relation"], f"{where}.relation"),
    )


def _costume_map(value, where: str) -> tuple[tuple[str, frozenset[str]], ...]:
    if not isinstance(value, list):
        raise CorpusFormatError(where, f"expected array, got {type(value).__name__}")
    entries = []
    for i, pair in enumerate(value):
        pwhere = f"{where}[{i}]"
        _check_fields(pair, pwhere, ("dancer_id", "values"))
        entries.append(
            (
                _str(pair["dancer_id"], f"{pwhere}.dancer_id"),
                frozenset(_str_list(pair["values"], f"{pwhere}.values")),
            )
        )
    entries.sort(key=lambda e: e[0])
    return tuple(entries)


def parse_corpus_document(doc) -> Corpus:
    """Build a Corpus from a decoded JSON document, collecting duplicate IDs.

    Raises CorpusFormatError for structural problems and IntegrityError when
    the parsed corpus violates integrity rules (duplicates, dangling
    references, interval rules); every violation is listed.
    """
    if not isinstance(doc, dict):
        raise CorpusFormatError("$", "top level must be an object")
    unknown = set(doc) - set(_TOP_LEVEL_KEYS)
    if unknown:
        raise CorpusFormatError("$", f"unknown top-level key(s) {sorted(unknown)}")
    for key in _TOP_LEVEL_KEYS:
        if key not in doc:
            raise CorpusFormatError("$", f"missing top-level array {key!r}")
        if not isinstance(doc[key], list):
            raise CorpusFormatError(key, "expected array")

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

    videos = []
    for i, obj in enumerate(doc["videos"]):
        where = f"videos[{i}]"
        _check_fields(
            obj,
            where,
            ("id", "life_span", "recording_date", "description", "compound_scene_ids"),
        )
        videos.append(
            Video(
                id=_str(obj["id"], f"{where}.id"),
                life_span=_interval(obj["life_span"], f"{where}.life_span"),
                recording_date=_date(obj["recording_date"], f"{where}.recording_date"),
                description=_str(obj["description"], f"{where}.description"),
                compound_scene_ids=tuple(
                    _str_list(obj["compound_scene_ids"], f"{where}.compound_scene_ids")
                ),
            )
        )

    songs = []
    for i, obj in enumerate(doc["songs"]):
        where = f"songs[{i}]"
        _check_fields(obj, where, ("id", "name", "lyrics", "musician_id"))
        songs.append(
            Song(
                id=_str(obj["id"], f"{where}.id"),
                name=_str(obj["name"], f"{where}.name"),
                lyrics=_str(obj["lyrics"], f"{where}.lyrics"),
                musician_id=_str(obj["musician_id"], f"{where}.musician_id"),
            )
        )

    musicians = []
    for i, obj in enumerate(doc["musicians"]):
        where = f"musicians[{i}]"
        _check_fields(obj, where, ("id", "name", "address", "sex", "phone"))
        musicians.append(
            Musician(
                id=_str(obj["id"], f"{where}.id"),
                name=_str(obj["name"], f"{where}.name"),
                address=_str(obj["address"], f"{where}.address"),
                sex=_str(obj["sex"], f"{where}.sex"),
                phone=_str(obj["phone"], f"{where}.phone"),
            )
        )

    dancers = []
    for i, obj in enumerate(doc["dancers"]):
        where = f"dancers[{i}]"
        _check_fields(obj, where, ("id", "name", "age", "sex"))
        dancers.append(
            Dancer(
                id=_str(obj["id"], f"{where}.id"),
                name=_str(obj["name"], f"{where}.name"),
                age=_int(obj["age"], f"{where}.age"),
                sex=_str(obj["sex"], f"{where}.sex"),
            )
        )

    backgrounds = []
    for i, obj in enumerate(doc["backgrounds"]):
        where = f"backgrounds[{i}]"
        _check_fields(
            obj,
            where,
            ("id", "name", "location", "description"),
            optional=("location_existence",),
        )
        existence = obj.get("location_existence")
        if existence is not None:
            existence = _interval(existence, f"{where}.location_existence")
        backgrounds.append(
            Background(
                id=_str(obj["id"], f"{where}.id"),
                name=_str(obj["name"], f"{where}.name"),
                location=_str(obj["location"], f"{where}.location"),
                location_existence=existence,
                description=_str(obj["description"], f"{where}.description"),
            )
        )

    costumes = []
    for i, obj in enumerate(doc["costumes"]):
        where = f"costumes[{i}]"
        _check_fields(obj, where, ("id", "name", "description"))
        costumes.append(
            Costume(
                id=_str(obj["id"], f"{where}.id"),
                name=_str(obj["name"], f"{where}.name"),
                description=_str(obj["description"], f"{where}.description"),
            )
        )

    instruments = []
    for i, obj in enumerate(doc["instruments"]):
        where = f"instruments[{i}]"
        _check_fields(obj, where, ("id", "name", "description"))
        instruments.append(
            Instrument(
                id=_str(obj["id"], f"{where}.id"),
                name=_str(obj["name"], f"{where}.name"),
                description=_str(obj["description"], f"{where}.description"),
            )
        )

    step_defs = []
    for i, obj in enumerate(doc["step_defs"]):
        where = f"step_defs[{i}]"
        _check_fields(obj, where, ("id", "step_class", "name", "movement", "body_parts"))
        step_class = _str(obj["step_class"], f"{where}.step_class")
        if step_class not in STEP_CLASSES:
            raise CorpusFormatError(
                f"{where}.step_class",
                f"expected one of {list(STEP_CLASSES)}, got {step_class!r}",
            )
        step_defs.append(
            StepDefinition(
                id=_str(obj["id"], f"{where}.id"),
                step_class=step_class,
                name=_str(obj["name"], f"{where}.name"),
                movement=_str(obj["movement"], f"{where}.movement"),
                body_parts=frozenset(_str_list(obj["body_parts"], f"{where}.body_parts")),
            )
        )

    compound_scenes = []
    for i, obj in enumerate(doc["compound_scenes"]):
        where = f"compound_scenes[{i}]"
        _check_fields(obj, where, ("id", "video_id", "song_id", "scene_ids", "description"))
        compound_scenes.append(
            CompoundScene(
                id=_str(obj["id"], f"{where}.id"),
                video_id=_str(obj["video_id"], f"{where}.video_id"),
                song_id=_str(obj["song_id"], f"{where}.song_id"),
                scene_ids=tuple(_str_list(obj["scene_ids"], f"{where}.scene_ids")),
                description=_str(obj["description"], f"{where}.description"),
            )
        )

    scenes = []
    for i, obj in enumerate(doc["scenes"]):
        where = f"scenes[{i}]"
        _check_fields(
            obj,
            where,
            (
                "id",
                "compound_scene_id",
                "life_span",
                "component",
                "background_id",
                "costume_map",
                "shot_ids",
            ),
        )
        component = _str(obj["component"], f"{where}.component")
        if component not in SONG_COMPONENTS:
            raise CorpusFormatError(
                f"{where}.component",
                f"expected one of {list(SONG_COMPONENTS)}, got {component!r}",
            )
        scenes.append(
            Scene(
                id=_str(obj["id"], f"{where}.id"),
                compound_scene_id=_str(obj["compound_scene_id"], f"{where}.compound_scene_id"),
                life_span=_interval(obj["life_span"], f"{where}.life_span"),
                component=component,
                background_id=_str(obj["background_id"], f"{where}.background_id"),
                costume_map=_costume_map(obj["costume_map"], f"{where}.costume_map"),
                shot_ids=tuple(_str_list(obj["shot_ids"], f"{where}.shot_ids")),
            )
        )

    shots = []
    for i, obj in enumerate(doc["shots"]):
        where = f"shots[{i}]"
        _check_fields(
            obj,
            where,
            (
                "id",
                "scene_id",
                "life_span",
                "dancer_ids",
                "occurrences",
                "spatial_triplets",
                "description",
            ),
        )
        if not isinstance(obj["occurrences"], list):
            raise CorpusFormatError(f"{where}.occurrences", "expected array")
        if not isinstance(obj["spatial_triplets"], list):
            raise CorpusFormatError(f"{where}.spatial_triplets", "expected array")
        occurrences = tuple(
            sorted(
                (
                    _occurrence(o, f"{where}.occurrences[{j}]")
                    for j, o in enumerate(obj["occurrences"])
                ),
                key=lambda occ: occ.occ_id,
            )
        )
        triplets = tuple(
            sorted(
                (
                    _triplet(t, f"{where}.spatial_triplets[{j}]")
                    for j, t in enumerate(obj["spatial_triplets"])
                ),
                key=lambda t: (t.dancer1, t.relation, t.dancer2),
            )
        )
        shots.append(
            Shot(
                id=_str(obj["id"], f"{where}.id"),
                scene_id=_str(obj["scene_id"], f"{where}.scene_id"),
                life_span=_interval(obj["life_span"], f"{where}.life_span"),
                dancer_ids=frozenset(_str_list(obj["dancer_ids"], f"{where}.dancer_ids")),
                occurrences=occurrences,
                spatial_triplets=triplets,
                description=_str(obj["description"], f"{where}.description"),
            )
        )

    corpus = Corpus(
        videos=catalog("video", videos),
        songs=catalog("song", songs),
        musicians=catalog("musician", musicians),
        dancers=catalog("dancer", dancers),
        backgrounds=catalog("background", backgrounds),
        costumes=catalog("costume", costumes),
        instruments=catalog("instrument", instruments),
        step_defs=catalog("step def", step_defs),
        compound_scenes=catalog("compound scene", compound_scenes),
        scenes=catalog("scene", scenes),
        shots=catalog("shot", shots),
    )

    violations = dup_violations + validate_corpus(corpus)
    if violations:
        raise IntegrityError(violations)
    return corpus


def loads_corpus(text: str) -> Corpus:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"line {exc.lineno}, col {exc.colno}", exc.msg) from None
    return parse_corpus_document(doc)


def load_corpus(path) -> Corpus:
    """Load, parse and fully validate a corpus file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return loads_corpus(text)


# --------------------------------------------------------------------------
# Serialization

def _interval_doc(iv: TimeInterval) -> dict:
    return {"start": iv.start, "end": iv.end}


def corpus_document(corpus: Corpus) -> dict:
    """Canonical JSON document for a corpus: catalogs sorted by ID."""

    def by_id(table: dict):
        return [table[k] for k in sorted(table)]

    doc: dict = {
        "videos": [
            {
                "id": v.id,
                "life_span": _interval_doc(v.life_span),
                "recording_date": v.recording_date.isoformat(),
                "description": v.description,
                "compound_scene_ids": list(v.compound_scene_ids),
            }
            for v in by_id(corpus.videos)
        ],
        "songs": [
            {"id": s.id, "name": s.name, "lyrics": s.lyrics, "musician_id": s.musician_id}
            for s in by_id(corpus.songs)
        ],
        "musicians": [
            {"id": m.id, "name": m.name, "address": m.address, "sex": m.sex, "phone": m.phone}
            for m in by_id(corpus.musicians)
        ],
        "dancers": [
            {"id": d.id, "name": d.name, "age": d.age, "sex": d.sex}
            for d in by_id(corpus.dancers)
        ],
        "backgrounds": [
            {
                "id": b.id,
                "name": b.name,
                "location": b.location,
                "location_existence": None
                if b.location_existence is None
                else _interval_doc(b.location_existence),
                "description": b.description,
            }
            for b in by_id(corpus.backgrounds)
        ],
        "costumes": [
            {"id": c.id, "name": c.name, "description": c.description}
            for c in by_id(corpus.costumes)
        ],
        "instruments": [
            {"id": i.id, "name": i.name, "description": i.description}
            for i in by_id(corpus.instruments)
        ],
        "step_defs": [
            {
                "id": sd.id,
                "step_class": sd.step_class,
                "name": sd.name,
                "movement": sd.movement,
                "body_parts": sorted(sd.body_parts),
            }
            for sd in by_id(corpus.step_defs)
        ],
        "compound_scenes": [
            {
                "id": cs.id,
                "video_id": cs.video_id,
                "song_id": cs.song_id,
                "scene_ids": list(cs.scene_ids),
                "description": cs.description,
            }
            for cs in by_id(corpus.compound_scenes)
        ],
        "scenes": [
            {
                "id": sc.id,
                "compound_scene_id": sc.compound_scene_id,
                "life_span": _interval_doc(sc.life_span),
                "component": sc.component,
                "background_id": sc.background_id,
                "costume_map": [
                    {"dancer_id": did, "values": sorted(vals)}
                    for did, vals in sc.costume_map
                ],
                "shot_ids": list(sc.shot_ids),
            }
            for sc in by_id(corpus.scenes)
        ],
        "shots": [
            {
                "id": sh.id,
                "scene_id": sh.scene_id,
                "life_span": _interval_doc(sh.life_span),
                "dancer_ids": sorted(sh.dancer_ids),
                "occurrences": [
                    {
                        "occ_id": o.occ_id,
                        "shot_id": o.shot_id,
                        "dancer_id": o.dancer_id,
                        "step_def_id": o.step_def_id,
                        "posture": o.posture,
                        "reflexion": o.reflexion,
                        "instrument_id": o.instrument_id,
                    }
                    for o in sh.occurrences
                ],
                "spatial_triplets": [
                    {"dancer1": t.dancer1, "dancer2": t.dancer2, "relation": t.relation}
                    for t in sh.spatial_triplets
                ],
                "description": sh.description,
            }
            for sh in by_id(corpus.shots)
        ],
    }
    return doc


def dumps_corpus(corpus: Corpus) -> str:
    return json.dumps(corpus_document(corpus), indent=2, sort_keys=True) + "\n"


def write_text_atomic(path, text: str) -> None:
    """Write text to path by way of ``<path>.tmp`` and a rename.

    An interrupted or failed write leaves the previous file, or none, in
    place and removes the temporary file.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_corpus(corpus: Corpus, path) -> None:
    write_text_atomic(path, dumps_corpus(corpus))


def corpus_fingerprint(corpus: Corpus) -> str:
    """SHA-256 of the compact canonical JSON of the corpus document.

    The hashed text is ``corpus_document`` dumped with sorted keys and no
    whitespace, which the C JSON encoder produces; it is not the indented
    file layout. Indexes pin this value. It is computed once per corpus
    object and cached, since corpora are immutable after construction.
    """
    if corpus._fingerprint is None:
        text = json.dumps(corpus_document(corpus), sort_keys=True, separators=(",", ":"))
        corpus._fingerprint = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return corpus._fingerprint
