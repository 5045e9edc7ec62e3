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

Every relation of both layers, between two dancers in one scene, has one
evaluator here (``relation_evaluator``), and both engines run it. It reads
the scene's performance data rather than a corpus: each dancer's
performances, ``(shot, start, end, step)`` per occurrence in scene order,
and the shots in which dancer a is on screen without an occurrence. Shots
and steps are opaque keys compared for equality: IDs when the sequential
engine builds the data from the corpus objects (``corpus_performances``,
``corpus_watching``), ordinals when the indexed engine builds it from the
index arrays. The co-performer's step in a shot is read off b's
performances.

Evaluators return witnesses: which shots and step definitions ground the
relation. ``evaluate_dancer_relation`` and
``evaluate_allen_between_dancers`` run them on one scene of a corpus and
return ``Witness`` records, which callers turn into result sets or
re-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Corpus, Scene, TimeInterval

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
    return _allen(i1.start, i1.end, i2.start, i2.end)


def _allen(s1: int, e1: int, s2: int, e2: int) -> str:
    """``allen_relation`` of [s1, e1] and [s2, e2], both proper."""
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


# -- performance data ---------------------------------------------------------
#
# A performance is (shot, start, end, step): one occurrence of a dancer, its
# shot's life span and its step definition. An evaluator takes dancer a's and
# dancer b's performances in one scene, in scene order, the shots of that
# scene in which a watches (on screen without an occurrence), and the
# allowed steps (None for any), and returns (shots_a, shots_b, steps)
# triples, the fields of a Witness.


def corpus_performances(corpus: Corpus, scenes, dancer_ids) -> dict:
    """dancer ID -> scene ID -> the dancer's performances in that scene, in
    scene order, with shot and step IDs; scenes without one are left out."""
    out: dict[str, dict[str, list]] = {dancer_id: {} for dancer_id in dancer_ids}
    shots = corpus.shots
    for scene in scenes:
        for shot_id in scene.shot_ids:
            shot = shots[shot_id]
            for occ in shot.occurrences:
                by_scene = out.get(occ.dancer_id)
                if by_scene is not None:
                    span = shot.life_span
                    by_scene.setdefault(scene.id, []).append(
                        (shot_id, span.start, span.end, occ.step_def_id)
                    )
    return out


def corpus_watching(corpus: Corpus, scenes, dancer_ids) -> dict:
    """dancer ID -> scene ID -> the IDs of the shots in which the dancer is
    on screen without an occurrence; scenes without one are left out."""
    out: dict[str, dict[str, set]] = {dancer_id: {} for dancer_id in dancer_ids}
    shots = corpus.shots
    for scene in scenes:
        for shot_id in scene.shot_ids:
            shot = shots[shot_id]
            for dancer_id in out.keys() & shot.dancer_ids:
                if shot.occurrence_of(dancer_id) is None:
                    out[dancer_id].setdefault(scene.id, set()).add(shot_id)
    return out


def _allows(allowed, step) -> bool:
    return allowed is None or step in allowed


def _follows_or_repeats(follows: bool):
    def evaluate(perf_a, perf_b, watching_a, allowed):
        out = []
        for shot_a, _, end_a, step in perf_a:
            if not _allows(allowed, step):
                continue
            for shot_b, start_b, _, step_b in perf_b:
                if shot_a == shot_b or step != step_b:
                    continue
                if (end_a == start_b) if follows else (end_a < start_b):
                    out.append(((shot_a,), (shot_b,), (step,)))
        return out

    return evaluate


def _sequence(follows: bool):
    def evaluate(perf_a, perf_b, watching_a, allowed):
        if not perf_a or len(perf_a) != len(perf_b):
            return []
        for (shot_a, _, end_a, step_a), (shot_b, start_b, _, step_b) in zip(perf_a, perf_b):
            if shot_a == shot_b or step_a != step_b:
                return []
            if (end_a != start_b) if follows else (end_a >= start_b):
                return []
        steps = tuple(p[3] for p in perf_a)
        if allowed is not None and not allowed.issuperset(steps):
            return []
        return [(tuple(p[0] for p in perf_a), tuple(p[0] for p in perf_b), steps)]

    return evaluate


def _performs(same: bool):
    def evaluate(perf_a, perf_b, watching_a, allowed):
        step_of_b = {p[0]: p[3] for p in perf_b}
        return [
            ((shot,), (shot,), (step,))
            for shot, _, _, step in perf_a
            if shot in step_of_b and (step_of_b[shot] == step) == same and _allows(allowed, step)
        ]

    return evaluate


def _performs_sequence(same: bool):
    def evaluate(perf_a, perf_b, watching_a, allowed):
        step_of_b = {p[0]: p[3] for p in perf_b}
        shared = [(shot, step) for shot, _, _, step in perf_a if shot in step_of_b]
        if not shared or any((step_of_b[shot] == step) != same for shot, step in shared):
            return []
        steps = tuple(step for _, step in shared)
        if allowed is not None and not allowed.issuperset(steps):
            return []
        shots = tuple(shot for shot, _ in shared)
        return [(shots, shots, steps)]

    return evaluate


def _observes(perf_a, perf_b, watching_a, allowed):
    return [
        ((shot,), (shot,), (step,))
        for shot, _, _, step in perf_b
        if shot in watching_a and _allows(allowed, step)
    ]


def _interval(relation: str):
    """Every pair of a performance of a and one of b, both on proper
    intervals, whose life spans stand in the relation; the allowed steps
    constrain dancer a's step. The same shot may pair with itself."""

    def evaluate(perf_a, perf_b, watching_a, allowed):
        spans_a = [p for p in perf_a if p[1] < p[2] and _allows(allowed, p[3])]
        if not spans_a:
            return []
        spans_b = [p for p in perf_b if p[1] < p[2]]
        return [
            ((shot_a,), (shot_b,), (step,))
            for shot_a, s1, e1, step in spans_a
            for shot_b, s2, e2, _ in spans_b
            if _allen(s1, e1, s2, e2) == relation
        ]

    return evaluate


_EVALUATORS = {
    "follows": _follows_or_repeats(True),
    "repeats": _follows_or_repeats(False),
    "follows_sequence": _sequence(True),
    "repeats_sequence": _sequence(False),
    "performs_same": _performs(True),
    "performs_different": _performs(False),
    "performs_same_sequence": _performs_sequence(True),
    "performs_different_sequence": _performs_sequence(False),
    "observes": _observes,
    **{relation: _interval(relation) for relation in ALLEN_RELATIONS},
}


def relation_evaluator(relation: str):
    """The evaluator of a dancer or interval relation, as described above."""
    try:
        return _EVALUATORS[relation]
    except KeyError:
        raise ValueError(f"unknown relation: {relation!r}") from None


def _scene_witnesses(corpus, scene, relation, dancer_a, dancer_b, allowed_steps):
    performances = corpus_performances(corpus, (scene,), (dancer_a, dancer_b))
    watching = corpus_watching(corpus, (scene,), (dancer_a,))
    found = _EVALUATORS[relation](
        performances[dancer_a].get(scene.id, ()),
        performances[dancer_b].get(scene.id, ()),
        watching[dancer_a].get(scene.id, ()),
        allowed_steps,
    )
    return [Witness(relation, scene.id, dancer_a, dancer_b, *w) for w in found]


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
    return _scene_witnesses(corpus, scene, relation, dancer_a, dancer_b, allowed_steps)


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
    return _scene_witnesses(corpus, scene, relation, dancer_a, dancer_b, allowed_steps)
