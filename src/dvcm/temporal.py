"""Temporal reasoning over shot intervals.

Two layers live here. The first is the classical thirteen-relation interval
algebra (before/meets/overlaps/starts/during/finishes, their inverses, and
equals), defined for proper intervals (start < end). Exactly one relation
holds for any pair, and swapping the arguments yields the inverse.

The second layer is the set of nine dancer-to-dancer relations evaluated
inside a single scene. They compare the shots in which each dancer actually
performs a step (an occurrence), in scene order:

    follows        b performs a's step in a shot starting exactly where
                   a's shot ends
    repeats        b performs a's step strictly later
    *_sequence     positional pairing of a's and b's performance shots;
                   the pair condition must hold at every position
    performs_same / performs_different
                   both dancers perform in one shot, equal / unequal step
    performs_*_sequence
                   the same/different condition over every shot both
                   dancers perform in (none if they share no shot, none if
                   the shots disagree)
    observes       a is on screen without an occurrence while b performs

Evaluators return witnesses: which shots and step definitions ground the
relation. Callers turn those into result sets or re-check them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Corpus, Scene, Shot, TimeInterval

ALLEN_RELATIONS = (
    "before",
    "meets",
    "overlaps",
    "starts",
    "during",
    "finishes",
    "equals",
    "after",
    "met_by",
    "overlapped_by",
    "started_by",
    "contains",
    "finished_by",
)

ALLEN_INVERSE = {
    "before": "after",
    "meets": "met_by",
    "overlaps": "overlapped_by",
    "starts": "started_by",
    "during": "contains",
    "finishes": "finished_by",
    "equals": "equals",
    "after": "before",
    "met_by": "meets",
    "overlapped_by": "overlaps",
    "started_by": "starts",
    "contains": "during",
    "finished_by": "finishes",
}

DANCER_RELATIONS = (
    "follows",
    "repeats",
    "follows_sequence",
    "repeats_sequence",
    "performs_same",
    "performs_different",
    "performs_same_sequence",
    "performs_different_sequence",
    "observes",
)


def allen_relation(i1: TimeInterval, i2: TimeInterval) -> str:
    """The unique interval relation holding between two proper intervals.

    Raises ValueError for degenerate intervals (start == end), for which
    several of the thirteen cases collapse.
    """
    if i1.start >= i1.end or i2.start >= i2.end:
        raise ValueError("interval relations need proper intervals (start < end)")
    s1, e1, s2, e2 = i1.start, i1.end, i2.start, i2.end
    if e1 < s2:
        return "before"
    if e2 < s1:
        return "after"
    if e1 == s2:
        return "meets"
    if e2 == s1:
        return "met_by"
    if s1 == s2 and e1 == e2:
        return "equals"
    if s1 == s2:
        return "starts" if e1 < e2 else "started_by"
    if e1 == e2:
        return "finishes" if s1 > s2 else "finished_by"
    if s2 < s1 and e1 < e2:
        return "during"
    if s1 < s2 and e2 < e1:
        return "contains"
    return "overlaps" if s1 < s2 else "overlapped_by"


@dataclass(frozen=True)
class Witness:
    """Grounding of one dancer relation inside one scene.

    shots_a / shots_b are the performing shots of each dancer, position by
    position (a single pair for the non-sequence relations; for observes,
    shots_a is the shot in which a watches). step_def_ids holds the step
    grounding each position: the shared step, or a's own step for the
    "different" relations, or b's step for observes.
    """

    relation: str
    scene_id: str
    dancer_a: str
    dancer_b: str
    shots_a: tuple[str, ...]
    shots_b: tuple[str, ...]
    step_def_ids: tuple[str, ...]

    def shot_ids(self) -> set[str]:
        return set(self.shots_a) | set(self.shots_b)


def _performance_shots(
    corpus: Corpus, scene: Scene, dancer_id: str
) -> list[tuple[Shot, str]]:
    """(shot, step_def_id) of each of the dancer's occurrences, in scene order."""
    out = []
    for shot_id in scene.shot_ids:
        shot = corpus.shots[shot_id]
        occ = shot.occurrence_of(dancer_id)
        if occ is not None:
            out.append((shot, occ.step_def_id))
    return out


def evaluate_dancer_relation(
    corpus: Corpus,
    scene: Scene,
    relation: str,
    dancer_a: str,
    dancer_b: str,
    allowed_steps: frozenset[str] | None = None,
) -> list[Witness]:
    """All witnesses of one relation between two dancers within one scene.

    allowed_steps, when given, keeps only witnesses whose every grounding
    step is in the set. The two dancers must differ.
    """
    if dancer_a == dancer_b:
        raise ValueError("dancer relations need two distinct dancers")
    if relation not in DANCER_RELATIONS:
        raise ValueError(f"unknown dancer relation: {relation!r}")

    shots_a = _performance_shots(corpus, scene, dancer_a)
    shots_b = _performance_shots(corpus, scene, dancer_b)
    witnesses: list[Witness] = []

    def emit(sa: tuple[str, ...], sb: tuple[str, ...], steps: tuple[str, ...]) -> None:
        if allowed_steps is not None and not set(steps) <= allowed_steps:
            return
        witnesses.append(
            Witness(relation, scene.id, dancer_a, dancer_b, sa, sb, steps)
        )

    if relation in ("follows", "repeats"):
        for sa, step_a in shots_a:
            for sb, step_b in shots_b:
                if sa.id == sb.id or step_a != step_b:
                    continue
                if relation == "follows" and sa.life_span.end == sb.life_span.start:
                    emit((sa.id,), (sb.id,), (step_a,))
                elif relation == "repeats" and sa.life_span.end < sb.life_span.start:
                    emit((sa.id,), (sb.id,), (step_a,))

    elif relation in ("follows_sequence", "repeats_sequence"):
        if shots_a and len(shots_a) == len(shots_b):
            steps: list[str] = []
            for (sa, step_a), (sb, step_b) in zip(shots_a, shots_b):
                if sa.id == sb.id or step_a != step_b:
                    break
                if relation == "follows_sequence":
                    if sa.life_span.end != sb.life_span.start:
                        break
                elif sa.life_span.end >= sb.life_span.start:
                    break
                steps.append(step_a)
            else:
                emit(
                    tuple(s.id for s, _ in shots_a),
                    tuple(s.id for s, _ in shots_b),
                    tuple(steps),
                )

    elif relation in ("performs_same", "performs_different"):
        for sa, step_a in shots_a:
            occ_b = sa.occurrence_of(dancer_b)
            if occ_b is None:
                continue
            step_b = occ_b.step_def_id
            if relation == "performs_same" and step_a == step_b:
                emit((sa.id,), (sa.id,), (step_a,))
            elif relation == "performs_different" and step_a != step_b:
                emit((sa.id,), (sa.id,), (step_a,))

    elif relation in ("performs_same_sequence", "performs_different_sequence"):
        shared = [
            (sa, step_a, occ_b.step_def_id)
            for sa, step_a in shots_a
            if (occ_b := sa.occurrence_of(dancer_b)) is not None
        ]
        if shared:
            steps = []
            for _shot, step_a, step_b in shared:
                if relation == "performs_same_sequence":
                    if step_a != step_b:
                        break
                elif step_a == step_b:
                    break
                steps.append(step_a)
            else:
                ids = tuple(s.id for s, _, _ in shared)
                emit(ids, ids, tuple(steps))

    elif relation == "observes":
        for shot_id in scene.shot_ids:
            shot = corpus.shots[shot_id]
            if dancer_a not in shot.dancer_ids:
                continue
            if shot.occurrence_of(dancer_a) is not None:
                continue
            occ_b = shot.occurrence_of(dancer_b)
            if occ_b is None:
                continue
            emit((shot.id,), (shot.id,), (occ_b.step_def_id,))

    return witnesses


def evaluate_allen_between_dancers(
    corpus: Corpus,
    scene: Scene,
    relation: str,
    dancer_a: str,
    dancer_b: str,
    allowed_steps: frozenset[str] | None = None,
) -> list[Witness]:
    """Interval-algebra pairing of the two dancers' performance shots.

    Every (shot of a, shot of b) pair within the scene whose life spans
    stand in the requested relation yields a witness. The optional step set
    constrains dancer_a's step. Degenerate shot intervals are skipped: no
    relation is defined for them.
    """
    if dancer_a == dancer_b:
        raise ValueError("interval relations between dancers need two distinct dancers")
    if relation not in ALLEN_RELATIONS:
        raise ValueError(f"unknown interval relation: {relation!r}")
    shots_a = []
    for sa, step_a in _performance_shots(corpus, scene, dancer_a):
        if sa.life_span.start >= sa.life_span.end:
            continue
        if allowed_steps is not None and step_a not in allowed_steps:
            continue
        shots_a.append((sa, step_a))
    if not shots_a:
        return []
    # most scenes fail the checks above, so dancer_b's shots are gathered
    # only after one of dancer_a's passes, and then only once
    shots_b = [
        sb for sb, _ in _performance_shots(corpus, scene, dancer_b)
        if sb.life_span.start < sb.life_span.end
    ]
    witnesses = []
    for sa, step_a in shots_a:
        for sb in shots_b:
            # same shot is allowed: both dancers perform, the intervals
            # coincide and the pair lands in "equals"
            if allen_relation(sa.life_span, sb.life_span) == relation:
                witnesses.append(
                    Witness(relation, scene.id, dancer_a, dancer_b,
                            (sa.id,), (sb.id,), (step_a,))
                )
    return witnesses
