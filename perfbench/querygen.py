"""Seeded whole-language query texts for the dvcm benchmark.

The generator reads the vocabulary straight from a corpus JSON document
(the file ``dvcm gen`` writes), so it depends on the file format only and
not on any dvcm module: an edit to the program cannot shift the workload.

Kinds take turns, one query of each in every four, and each kind walks
its own coverage counter, so any list of at least ``FULL_COVERAGE``
queries holds every temporal relation with each step constraint (none,
step=, step_class=), every spatial relation with performing= true and
false, and every kind at every granularity. Names come from the corpus
catalogs, so relation calls never name an unknown dancer or step; about one
containment atom in ten uses a term that matches nothing.
"""

from __future__ import annotations

import random

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
TEMPORAL_RELATIONS = DANCER_RELATIONS + ALLEN_RELATIONS
SPATIAL_RELATIONS = ("behind", "in_front_of", "left_of", "meets", "near", "right_of")
STEP_CLASSES = ("py", "ad", "asha", "sha", "cs")
GRANULARITIES = ("shots", "scenes", "cscenes")
# Queries take the kinds in turn, so each kind is a quarter of them. No
# usage data says how often users ask each kind, so the shares are equal by
# assumption; the per-kind engine.*.shots_for_body metrics show each kind on
# its own.
KINDS = ("containment", "temporal", "spatial", "spatiotemporal")
_STEP_CONSTRAINTS = ("none", "step", "step_class")
_PAIRED_FACETS = ("step", "step_class", "posture", "reflexion")
NO_MATCH_TERM = "no such term"
# Facets with a few terms, each matching a large share of the corpus: which
# of them meet in a tree sets most of a containment query's cost, so they go
# in a fixed order. The terms of the other facets each match about 1 % of
# the corpus, and the seed picks them.
_BROAD_FACETS = ("body_part", "posture", "reflexion", "step_class")

# Temporal queries are 1 in 4 and need 22 relations x 3 constraints.
FULL_COVERAGE = 4 * 22 * 3


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


class Vocabulary:
    """Names and terms harvested from a corpus document."""

    def __init__(self, doc: dict):
        dancer_name = {d["id"]: d["name"] for d in doc["dancers"]}
        step_name = {s["id"]: s["name"] for s in doc["step_defs"]}
        instrument_name = {i["id"]: i["name"] for i in doc["instruments"]}
        shots = doc["shots"]

        occurrences = [occ for shot in shots for occ in shot["occurrences"]]
        self.occurrences = [
            (dancer_name[o["dancer_id"]], step_name[o["step_def_id"]], o["posture"], o["reflexion"])
            for o in occurrences
        ]
        self.step_class = {s["name"]: s["step_class"].lower() for s in doc["step_defs"]}
        # Relation calls take their dancers, steps and spatial relations from
        # real shots, so that a fair share of them hold: each shot with two
        # dancers on screen gives (name, step performed or None) per dancer.
        self.shot_groups = []
        self.triplets = []
        for shot in shots:
            step_of = {o["dancer_id"]: step_name[o["step_def_id"]] for o in shot["occurrences"]}
            if len(shot["dancer_ids"]) >= 2:
                self.shot_groups.append(
                    [(dancer_name[d], step_of.get(d)) for d in sorted(shot["dancer_ids"])]
                )
            for t in shot["spatial_triplets"]:
                self.triplets.append((
                    t["relation"],
                    (dancer_name[t["dancer1"]], step_of.get(t["dancer1"])),
                    (dancer_name[t["dancer2"]], step_of.get(t["dancer2"])),
                ))
        self.dancers = sorted(set(dancer_name.values()))
        self.steps = sorted(set(step_name.values()))
        scenes = doc["scenes"]
        background_name = {b["id"]: b["name"] for b in doc["backgrounds"]}
        costume_name = {c["id"]: c["name"] for c in doc["costumes"]}
        self.terms = {
            "dancer": self.dancers,
            "step": self.steps,
            "step_class": list(STEP_CLASSES),
            "body_part": sorted({p for s in doc["step_defs"] for p in s["body_parts"]}),
            "posture": sorted({o[2] for o in self.occurrences}),
            "reflexion": sorted({o[3] for o in self.occurrences}),
            "instrument": sorted(
                {instrument_name[o["instrument_id"]] for o in occurrences if o["instrument_id"]}
            ),
            "background": sorted({background_name[s["background_id"]] for s in scenes}),
            "costume": sorted(
                {costume_name[c] for s in scenes for m in s["costume_map"] for c in m["values"]}
            ),
        }
        self.terms = {facet: terms for facet, terms in self.terms.items() if terms}
        if len(self.dancers) < 2 or not self.steps:
            raise ValueError("the corpus needs two dancers and one step definition")


class QueryGenerator:
    """Deterministic stream of query texts for one seed and stream name."""

    def __init__(self, vocab: Vocabulary, seed: int, stream: str):
        self.vocab = vocab
        self.rng = random.Random(f"dvcm-perfbench:{seed}:{stream}")
        self.counters = dict.fromkeys(KINDS, 0)
        self.position = 0
        self.atoms = self.leaves = self.ops = 0
        self.turns: dict[str, int] = {}

    def next(self) -> tuple[str, str, str]:
        """(kind, granularity word, query text) of the next query."""
        kind = KINDS[self.position % len(KINDS)]
        self.position += 1
        k = self.counters[kind]
        self.counters[kind] += 1
        # The counter k walks every combination of a kind's choices in turn:
        # depth x granularity, relation x constraint, relation x performing x
        # granularity.
        if kind == "containment":
            body, turn = self._tree(depth=k % 3), k // 3
        elif kind == "temporal":
            body, turn = self._temporal(TEMPORAL_RELATIONS[k % 22],
                                        _STEP_CONSTRAINTS[(k // 22) % 3]), k
        elif kind == "spatial":
            body, turn = self._spatial(SPATIAL_RELATIONS[k % 6], performing=(k // 6) % 2 == 1), k // 12
        else:
            # both calls about the two dancers of one stored triplet
            if self.vocab.triplets:
                relation, *pair = self.rng.choice(self.vocab.triplets)
            else:
                relation, pair = self.rng.choice(SPATIAL_RELATIONS), self._random_pair()
            temporal = self._temporal(
                self.rng.choice(TEMPORAL_RELATIONS), self.rng.choice(_STEP_CONSTRAINTS), pair
            )
            spatial = self._spatial(relation, performing=self.rng.random() < 0.5, pair=pair)
            first, second = (temporal, spatial) if k % 2 == 0 else (spatial, temporal)
            body, turn = f"{first} and {second}", k
        gran = GRANULARITIES[turn % 3]
        return kind, gran, f"find {gran} where {body}"

    def take(self, n: int) -> list[tuple[str, str, str]]:
        return [self.next() for _ in range(n)]

    def take_shuffled(self, n: int) -> list[tuple[str, str, str]]:
        """n texts in a seeded order, so that a short prefix mixes every kind."""
        texts = self.take(n)
        self.rng.shuffle(texts)
        return texts

    # -- containment ----------------------------------------------------------

    def _turn(self, key: str, items):
        """The next of items in a fixed order that repeats.

        Choices whose options differ in cost (a reflexion term expands to
        four terms or to one; a posture matches a quarter of the corpus)
        go in turn, so every seed's list holds each option equally often,
        in the same places, and costs about the same.
        """
        turn = self.turns.get(key, 0)
        self.turns[key] = turn + 1
        return items[turn % len(items)]

    def _atom(self) -> str:
        # facets in a fixed order, so that every seed's trees combine the same
        # facets in the same places
        facets = sorted(self.vocab.terms)
        self.atoms += 1
        facet = facets[self.atoms % len(facets)]
        if facet != "step_class" and self.atoms % 10 == 0:
            return f"{facet} = {_quote(NO_MATCH_TERM)}"
        terms = self.vocab.terms[facet]
        term = self._turn(facet, terms) if facet in _BROAD_FACETS else self.rng.choice(terms)
        return f"{facet} = {_quote(term)}"

    def _paired(self) -> str:
        """dancer= and a pairable facet, which the engines match per occurrence."""
        facet = self._turn("paired", _PAIRED_FACETS)
        if facet == "step_class":
            dancer, value = self.rng.choice(self.vocab.dancers), self._turn(facet, STEP_CLASSES)
        else:
            # half the pairs are taken from one real occurrence, so they match
            dancer, step, posture, reflexion = self.rng.choice(self.vocab.occurrences)
            value = {"step": step, "posture": posture, "reflexion": reflexion}[facet]
            if self._turn("paired-dancer", (True, False)):
                dancer = self.rng.choice(self.vocab.dancers)
        atoms = [f"dancer = {_quote(dancer)}", f"{facet} = {_quote(value)}"]
        self.rng.shuffle(atoms)
        return " and ".join(atoms)

    def _tree(self, depth: int) -> str:
        """A full and/or tree with 2**depth leaves; a leaf is an atom or a pair.

        Shapes and operators go in turn, like facets and terms.
        """
        if depth == 0:
            self.leaves += 1
            return self._paired() if self.leaves % 4 == 0 else self._atom()
        self.ops += 1
        op = "and" if self.ops % 2 else "or"
        return f"({self._tree(depth - 1)}) {op} ({self._tree(depth - 1)})"

    # -- relation calls -------------------------------------------------------

    def _random_pair(self):
        a, b = self.rng.sample(self.vocab.dancers, 2)
        return (a, None), (b, None)

    def _temporal(self, relation: str, constraint: str, pair=None) -> str:
        """A relation call; mostly two dancers on screen together in one shot."""
        if pair is None:
            if self.vocab.shot_groups and self.rng.random() < 0.8:
                pair = self.rng.sample(self.rng.choice(self.vocab.shot_groups), 2)
            else:
                pair = self._random_pair()
        (a, step_a), (b, _) = pair
        args = [f"dancer = {_quote(a)}", f"dancer = {_quote(b)}"]
        if constraint != "none":
            # the step dancer a performs in that shot, which the constraint
            # binds in every relation
            step = step_a or self.rng.choice(self.vocab.steps)
            value = step if constraint == "step" else self.vocab.step_class[step]
            args.append(f"{constraint} = {_quote(value)}")
        return f"{relation}({', '.join(args)})"

    def _spatial(self, relation: str, performing: bool, pair=None) -> str:
        if pair is None:
            same = [t for t in self.vocab.triplets if t[0] == relation]
            if same and self.rng.random() < 0.8:
                pair = self.rng.choice(same)[1:]
            else:
                pair = self._random_pair()
        (a, _), (b, _) = pair
        args = [f"dancer = {_quote(a)}", f"dancer = {_quote(b)}", f"relation = {_quote(relation)}"]
        args.append(f"performing = {_quote('true' if performing else 'false')}")
        return f"spatial({', '.join(args)})"
