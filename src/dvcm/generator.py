"""Seeded synthetic corpus generation.

Corpora are built from a counter-based pseudo-random stream: draw k is
sha256(seed, k), so the same parameters always produce the same corpus,
byte for byte once serialized. There is no global RNG state and no
dependence on hash randomization or dict order.

The shape mirrors real annotations: one video, compound scenes whose scene
sequences spell valid song structures, scenes holding between two and eight
contiguous shots (configurable), dancers performing steps drawn from a
small generated step catalog, occasional observers, instruments and spatial
triplets. Generated corpora always pass every integrity rule.
"""

from __future__ import annotations

import datetime
import hashlib
import itertools
import math
from dataclasses import dataclass

from .model import (
    Background,
    CompoundScene,
    Corpus,
    Costume,
    Dancer,
    DEFAULT_POSTURES,
    Instrument,
    Musician,
    PY_BODY_PARTS,
    SPATIAL_RELATIONS,
    Scene,
    Shot,
    Song,
    SpatialTriplet,
    StepDefinition,
    StepOccurrence,
    TimeInterval,
    Video,
)

# Reflexion terms the generator draws from: the seed vocabulary plus the
# two extra terms the default synonym table groups with them.
GENERATOR_REFLEXIONS = ("sad", "happy", "delighted", "excited", "romantic", "joy")

_AD_PART_POOL = ("legs", "hands", "feet", "arms")
_CS_PART_POOL = ("legs", "arms", "shoulders", "torso")
_BACKGROUND_POOL = (
    ("Temple", "Madurai"),
    ("Stage", "Chennai"),
    ("Garden", "Thanjavur"),
    ("Riverbank", "Srirangam"),
)
_COSTUME_POOL = ("Red Silk", "Blue Cotton", "Green Zari")
_INSTRUMENT_POOL = ("Veena", "Mridangam", "Flute")


def _named_pool(pool: tuple, label: str, count: int) -> list[str]:
    """First the named entries, then numbered ones up to count."""
    names = [entry if isinstance(entry, str) else entry[0] for entry in pool]
    names = names[:count]
    for i in range(len(names), count):
        names.append(f"{label} {i + 1:03d}")
    return names


class InfeasibleParamsError(ValueError):
    """The requested corpus shape cannot be generated."""


@dataclass(frozen=True)
class GenParams:
    n_shots: int
    n_dancers: int
    n_step_defs: int = 12
    song_type_weights: tuple[float, ...] = (1, 1, 1, 1, 1, 1)
    shots_per_scene_range: tuple[int, int] = (2, 8)
    seed: int = 0

    def check(self) -> None:
        if self.n_shots < 0:
            raise InfeasibleParamsError("n_shots must be non-negative")
        if self.n_shots > 0 and self.n_dancers < 1:
            raise InfeasibleParamsError("shots need at least one dancer")
        if self.n_shots > 0 and self.n_step_defs < 1:
            raise InfeasibleParamsError("shots need at least one step definition")
        if self.n_dancers < 0 or self.n_step_defs < 0:
            raise InfeasibleParamsError("catalog sizes must be non-negative")
        lo, hi = self.shots_per_scene_range
        if lo < 1 or hi < lo:
            raise InfeasibleParamsError(
                f"shots_per_scene_range {self.shots_per_scene_range} is empty"
            )
        if len(self.song_type_weights) != 6:
            raise InfeasibleParamsError("song_type_weights needs six entries")
        if not math.isfinite(sum(self.song_type_weights)):
            raise InfeasibleParamsError("song type weights and their sum must be finite")
        if any(w < 0 for w in self.song_type_weights):
            raise InfeasibleParamsError("song type weights must be non-negative")
        if not any(self.song_type_weights):
            raise InfeasibleParamsError("song type weights must not all be zero")


class CounterRng:
    """Deterministic stream: draw k is derived from sha256(seed, k)."""

    def __init__(self, seed: int, stream: str = ""):
        self._prefix = f"{seed}:{stream}:".encode()
        self._counter = 0

    def _next64(self) -> int:
        digest = hashlib.sha256(self._prefix + str(self._counter).encode()).digest()
        self._counter += 1
        return int.from_bytes(digest[:8], "big")

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], by rejection to avoid modulo bias."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            x = self._next64()
            if x < limit:
                return lo + (x % span)

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def chance(self, percent: int) -> bool:
        return self.randint(1, 100) <= percent

    def weighted_index(self, weights) -> int:
        total = float(sum(weights))
        u = (self._next64() / float(1 << 64)) * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += float(w)
            if u < acc:
                return i
        return max(i for i, w in enumerate(weights) if w > 0)


# Word realization per song type. Base shapes, with repetition counts drawn
# as small as needed to fit the remaining scene budget.
_BASE_LEN = {1: 3, 2: 2, 3: 1, 4: 5, 5: 4, 6: 3}


def _realize_word(song_type: int, max_len: int, rng: CounterRng) -> list[str]:
    prefix = {1: ["PA", "AP"], 2: ["PA"], 3: [], 4: ["PA", "AP"], 5: ["PA"], 6: []}[
        song_type
    ]
    word = prefix + ["SA"]
    if song_type <= 3:
        extra = rng.randint(0, min(3, max_len - len(word)))
        word += ["SA"] * extra
    else:
        room = (max_len - len(word) - 2) // 2
        blocks = 1 + rng.randint(0, min(2, max(0, room)))
        word += ["CH", "SA"] * blocks
    return word


def _make_step_defs(n: int, rng: CounterRng) -> list[StepDefinition]:
    defs = []
    py_parts = sorted(PY_BODY_PARTS)
    for i, step_class in zip(range(n), itertools.cycle(("PY", "AD", "ASHA", "SHA", "CS"))):
        if step_class == "PY":
            first = rng.choice(py_parts)
            parts = {first}
            if rng.chance(40):
                parts.add(rng.choice(py_parts))
        elif step_class == "AD":
            a = rng.choice(_AD_PART_POOL)
            b = rng.choice([p for p in _AD_PART_POOL if p != a])
            parts = {a, b}
        elif step_class == "ASHA":
            parts = {rng.choice(("left hand", "right hand"))}
        elif step_class == "SHA":
            parts = {"left hand", "right hand"}
        else:
            parts = {rng.choice(_CS_PART_POOL)}
            if rng.chance(50):
                parts.add(rng.choice(_CS_PART_POOL))
        defs.append(
            StepDefinition(
                id=f"st{i + 1:04d}",
                step_class=step_class,
                name=f"Step {i + 1:04d}",
                movement=f"movement pattern {i + 1}",
                body_parts=frozenset(parts),
            )
        )
    return defs


def generate_corpus(params: GenParams) -> Corpus:
    """Build a corpus with exactly params.n_shots shots.

    Deterministic in params (including the seed). The output always passes
    validation; generation failures are parameter problems, raised as
    InfeasibleParamsError before any work happens.
    """
    params.check()
    rng = CounterRng(params.seed, "corpus")

    dancers = [
        Dancer(
            id=f"d{i + 1:04d}",
            name=f"Dancer {i + 1:04d}",
            age=16 + rng.randint(0, 40),
            sex=rng.choice(("female", "male")),
        )
        for i in range(params.n_dancers)
    ]
    step_defs = _make_step_defs(params.n_step_defs, rng)

    # Prop catalogs track the dancer roster: a larger production uses more
    # locations, wardrobes and accompanists.
    n_backgrounds = max(len(_BACKGROUND_POOL), params.n_dancers)
    n_costumes = max(len(_COSTUME_POOL), params.n_dancers // 2)
    n_instruments = max(len(_INSTRUMENT_POOL), params.n_dancers // 4)
    backgrounds = [
        Background(
            id=f"bg{i + 1:04d}",
            name=name,
            location=_BACKGROUND_POOL[i][1] if i < len(_BACKGROUND_POOL) else "on tour",
            location_existence=None,
            description=f"{name} setting",
        )
        for i, name in enumerate(
            _named_pool(_BACKGROUND_POOL, "Backdrop", n_backgrounds)
        )
    ]
    costumes = [
        Costume(id=f"co{i + 1:04d}", name=name, description=f"{name} costume")
        for i, name in enumerate(_named_pool(_COSTUME_POOL, "Costume", n_costumes))
    ]
    instruments = [
        Instrument(id=f"in{i + 1:04d}", name=name, description=f"{name} accompaniment")
        for i, name in enumerate(
            _named_pool(_INSTRUMENT_POOL, "Instrument", n_instruments)
        )
    ]
    musician = Musician(
        id="m0001",
        name="Composer 0001",
        address="12 Raga Street",
        sex="male",
        phone="000-0000",
    )

    corpus = Corpus(
        dancers={d.id: d for d in dancers},
        step_defs={sd.id: sd for sd in step_defs},
        backgrounds={b.id: b for b in backgrounds},
        costumes={c.id: c for c in costumes},
        instruments={i.id: i for i in instruments},
        musicians={musician.id: musician},
    )
    if params.n_shots == 0:
        return corpus

    # Scene sizes first: mostly within the configured range, the last scene
    # absorbs whatever remains (possibly fewer than the range minimum).
    lo, hi = params.shots_per_scene_range
    scene_sizes: list[int] = []
    remaining = params.n_shots
    while remaining > 0:
        size = min(rng.randint(lo, hi), remaining)
        scene_sizes.append(size)
        remaining -= size

    # Group scenes into compound scenes by drawing song-structure words.
    words: list[list[str]] = []
    scenes_left = len(scene_sizes)
    while scenes_left > 0:
        feasible = [
            t
            for t in range(1, 7)
            if params.song_type_weights[t - 1] > 0 and _BASE_LEN[t] <= scenes_left
        ]
        if not feasible:
            # nothing fits the tail; a single saranam scene is always valid
            words.append(["SA"])
            scenes_left -= 1
            continue
        weights = [params.song_type_weights[t - 1] for t in feasible]
        song_type = feasible[rng.weighted_index(weights)]
        word = _realize_word(song_type, scenes_left, rng)
        words.append(word)
        scenes_left -= len(word)

    dancer_ids = [d.id for d in dancers]
    step_ids = [sd.id for sd in step_defs]
    instrument_ids = [i.id for i in instruments]
    costume_ids = [c.id for c in costumes]
    background_ids = [b.id for b in backgrounds]
    relations = sorted(SPATIAL_RELATIONS)

    videos: dict[str, Video] = {}
    songs: dict[str, Song] = {}
    compound_scenes: dict[str, CompoundScene] = {}
    scenes: dict[str, Scene] = {}
    shots: dict[str, Shot] = {}

    tick = 0
    scene_index = 0
    shot_index = 0
    cs_ids: list[str] = []
    for w, word in enumerate(words):
        cs_id = f"cs{w + 1:05d}"
        song_id = f"so{w + 1:05d}"
        scene_ids: list[str] = []
        for component in word:
            scene_id = f"sc{scene_index + 1:06d}"
            n_in_scene = scene_sizes[scene_index]
            scene_index += 1
            shot_ids: list[str] = []
            scene_dancers: set[str] = set()
            scene_start = tick
            for _ in range(n_in_scene):
                shot_id = f"sh{shot_index + 1:06d}"
                shot_index += 1
                length = 10 * rng.randint(3, 12)
                span = TimeInterval(tick, tick + length)
                tick += length

                group_size = rng.randint(1, min(3, len(dancer_ids)))
                group = []
                pool = list(dancer_ids)
                for _ in range(group_size):
                    pick = rng.choice(pool)
                    pool.remove(pick)
                    group.append(pick)

                occurrences = []
                for did in group:
                    if len(occurrences) > 0 and rng.chance(20):
                        continue  # observer
                    occurrences.append(
                        StepOccurrence(
                            occ_id=f"{shot_id}-{did}",
                            shot_id=shot_id,
                            dancer_id=did,
                            step_def_id=rng.choice(step_ids),
                            posture=rng.choice(DEFAULT_POSTURES),
                            reflexion=rng.choice(GENERATOR_REFLEXIONS),
                            instrument_id=rng.choice(instrument_ids)
                            if rng.chance(20)
                            else None,
                        )
                    )

                triplets = []
                if len(group) >= 2 and rng.chance(30):
                    triplets.append(
                        SpatialTriplet(
                            dancer1=group[0],
                            dancer2=group[1],
                            relation=rng.choice(relations),
                        )
                    )

                scene_dancers.update(group)
                shots[shot_id] = Shot(
                    id=shot_id,
                    scene_id=scene_id,
                    life_span=span,
                    dancer_ids=frozenset(group),
                    occurrences=tuple(sorted(occurrences, key=lambda o: o.occ_id)),
                    spatial_triplets=tuple(
                        sorted(triplets, key=lambda t: (t.dancer1, t.relation, t.dancer2))
                    ),
                    description=f"shot {shot_index}",
                )
                shot_ids.append(shot_id)

            costume_map = tuple(
                (did, frozenset({rng.choice(costume_ids)}))
                for did in sorted(scene_dancers)
            )
            scenes[scene_id] = Scene(
                id=scene_id,
                compound_scene_id=cs_id,
                life_span=TimeInterval(scene_start, tick),
                component=component,
                background_id=rng.choice(background_ids),
                costume_map=costume_map,
                shot_ids=tuple(shot_ids),
            )
            scene_ids.append(scene_id)

        songs[song_id] = Song(
            id=song_id,
            name=f"Song {w + 1:05d}",
            lyrics=f"lyrics of song {w + 1}",
            musician_id=musician.id,
        )
        compound_scenes[cs_id] = CompoundScene(
            id=cs_id,
            video_id="v00001",
            song_id=song_id,
            scene_ids=tuple(scene_ids),
            description=f"rendering of song {w + 1}",
        )
        cs_ids.append(cs_id)

    videos["v00001"] = Video(
        id="v00001",
        life_span=TimeInterval(0, tick),
        recording_date=datetime.date(2004, 1, 1),
        description="generated video",
        compound_scene_ids=tuple(cs_ids),
    )

    return Corpus(
        videos=videos,
        songs=songs,
        musicians={musician.id: musician},
        dancers={d.id: d for d in dancers},
        backgrounds={b.id: b for b in backgrounds},
        costumes={c.id: c for c in costumes},
        instruments={i.id: i for i in instruments},
        step_defs={sd.id: sd for sd in step_defs},
        compound_scenes=compound_scenes,
        scenes=scenes,
        shots=shots,
    )
