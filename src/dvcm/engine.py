"""Query execution over a corpus: sequential scan and inverted-file engines.

Both engines implement the same semantics and must return identical results
for every query; the benchmark enforces this per query. Bodies evaluate to
sets of shots bottom-up ("and" intersects, "or" unions) and the result is
lifted to the requested granularity at the end. Scene-valued facets
(background, costume) contribute the shots of their matching scenes.

The sequential engine walks the corpus objects and keys shots by ID. The
indexed engine works on the ordinals of the index (see ``index``): its shot
sets hold shot ordinals, posting lists map to shots and scenes through the
one-array maps with C-level ``map``, and ``&`` / ``|`` run on int sets.
Ordinals become IDs once, when the result is lifted; ``shots_for_body``
still returns shot IDs on both engines.

Atom semantics:

    dancer      shots in which a dancer with that name performs a step;
                being on screen without an occurrence does not match
    step        shots with an occurrence of a step definition of that name
    step_class  same, by step class (py/ad/asha/sha/cs)
    body_part   shots with an occurrence whose step uses that body part,
                laterality ignored on both sides
    posture, reflexion, instrument
                occurrence attributes; reflexion terms expand through the
                synonym table before matching
    background, costume
                scene attributes, by entity name

One conjunction form is special: an "and" whose two operands are atoms, one
of them dancer= and the other step=, step_class=, posture= or reflexion=,
is paired at the occurrence level. It matches shots holding a single
occurrence satisfying both halves (the dancer performing that very step),
not shots where two different dancers split the conditions between them.
Both engines apply the same pairing rule, the indexed one by intersecting
posting lists before resolving occurrences to shots.

Temporal bodies are evaluated by the one per-scene evaluator of each
relation (``temporal``), fed per-dancer performance data: the scan builds
it from the corpus objects on each query, the indexed engine from the
index arrays, once per dancer name. Only scenes in which the relation can
hold are evaluated: those where dancer b performs and dancer a performs
(for observes: watches). Result shots of a temporal relation are every
shot mentioned by a witness. Spatial bodies match stored triplets: the
scan reads every shot's triplets, the indexed engine reads the spatial
file.

The indexed engine reads nothing but its index set, so it answers queries
from an index loaded without the corpus (``IndexedEngine(None, index)``).
Both engines resolve names through catalog name tables, which cover
dancers and steps without occurrences: the scan builds them from the
corpus, the indexed engine reads them from the index.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain, repeat
from typing import TYPE_CHECKING

from .index import IndexSet, build_index
from .normalize import (
    expand_reflexion,
    load_synonym_table,
    normalize_body_part,
    normalize_key,
)
from .qlang import (
    And,
    FacetAtom,
    Or,
    Query,
    SpatialRel,
    SpatioTemporal,
    TemporalRel,
    parse_query,
)
from .temporal import corpus_performances, corpus_watching, relation_evaluator
from .vocab import Granularity

# The corpus model is imported only by the scan, which holds a corpus: an
# engine over a saved index needs none of it.
if TYPE_CHECKING:
    from .model import Corpus

# Facets that may pair with dancer= at the occurrence level.
PAIRABLE_FACETS = frozenset({"step", "step_class", "posture", "reflexion"})

# The index file of each facet: occurrence ordinals, or scene ordinals for
# background and costume.
_FILE_OF_FACET = {
    "dancer": "dancers",
    "step": "steps",
    "step_class": "step_classes",
    "body_part": "body_parts",
    "posture": "postures",
    "reflexion": "reflexions",
    "instrument": "instruments",
    "background": "backgrounds",
    "costume": "costumes",
}


class UnknownNameError(ValueError):
    """A temporal or spatial call names a dancer or step the corpus lacks.

    Containment atoms with unknown terms simply match nothing; relation
    calls are stricter because a misspelled dancer would otherwise look
    like a meaningful empty answer.
    """


class _EngineBase:
    """Shared evaluation structure; subclasses provide atom resolution, the
    catalog name tables and the temporal performance data."""

    # Catalog name tables: normalized dancer name -> dancer keys, step name
    # and casefolded step class -> step keys. Keys are IDs in the scan and
    # ordinals in the indexed engine.
    _dancer_ids_by_name: dict[str, tuple]
    _step_ids_by_name: dict[str, tuple]
    _step_ids_by_class: dict[str, tuple]

    def __init__(self, corpus: Corpus | None, synonyms: dict[str, tuple[str, ...]] | None = None):
        self.corpus = corpus
        self.synonyms = load_synonym_table() if synonyms is None else synonyms

    # -- public entry points ------------------------------------------------

    def execute(self, query: Query) -> list[str]:
        """Run a parsed query; result IDs sorted at the query's granularity."""
        return self._lift(self._eval_body(query.body), query.granularity)

    def execute_text(self, text: str) -> list[str]:
        return self.execute(parse_query(text))

    def shots_for_body(self, body) -> set[str]:
        """The IDs of the shots a query body matches."""
        return self._shot_ids(self._eval_body(body))

    # An engine evaluates bodies to sets of its own shot keys: shot IDs
    # here, ordinals in the indexed engine. These two turn them into IDs.

    def _shot_ids(self, shots) -> set[str]:
        return shots

    def _lift(self, shots, granularity: Granularity) -> list[str]:
        from .model import lift_granularity

        return lift_granularity(self.corpus, shots, granularity)

    def _eval_body(self, body) -> set:
        if isinstance(body, (FacetAtom, And, Or)):
            return self._eval_node(body)
        if isinstance(body, TemporalRel):
            return self._eval_temporal(body)
        if isinstance(body, SpatialRel):
            return self._eval_spatial(body)
        if isinstance(body, SpatioTemporal):
            return self._eval_body(body.first) & self._eval_body(body.second)
        raise TypeError(f"not a query body: {body!r}")

    # -- containment --------------------------------------------------------

    def _eval_node(self, node) -> set:
        if isinstance(node, FacetAtom):
            return self._facet_shots(node.facet, node.value)
        if isinstance(node, And):
            pair = _pairable(node)
            if pair is not None:
                dancer_value, facet, value = pair
                return self._paired_shots(dancer_value, facet, value)
            return self._eval_node(node.left) & self._eval_node(node.right)
        if isinstance(node, Or):
            return self._eval_node(node.left) | self._eval_node(node.right)
        raise TypeError(f"not a containment node: {node!r}")

    def _facet_shots(self, facet: str, value: str) -> set:
        raise NotImplementedError

    def _paired_shots(self, dancer_value: str, facet: str, value: str) -> set:
        raise NotImplementedError

    # -- temporal / spatial ---------------------------------------------------

    def _resolve_step_constraint(self, rel: TemporalRel) -> frozenset | None:
        if rel.step is not None:
            ids = self._step_ids_by_name.get(rel.step, ())
            if not ids:
                raise UnknownNameError(f"unknown step: {rel.step!r}")
            return frozenset(ids)
        if rel.step_class is not None:
            # a class with no definitions is legal and filters everything out
            return frozenset(self._step_ids_by_class.get(rel.step_class, ()))
        return None

    def _resolve_dancer_name(self, name: str) -> tuple:
        ids = self._dancer_ids_by_name.get(name, ())
        if not ids:
            raise UnknownNameError(f"unknown dancer: {name!r}")
        return ids

    def _scene_feed(self, rel: TemporalRel, dancer_a, dancer_b):
        """The performance data of each scene in which the relation can hold
        between two dancers: (a's performances, b's performances, the shots
        in which a watches), as ``temporal`` describes them.

        Every relation needs b performing in the scene; observes needs a
        watching there, every other relation a performing.
        """
        raise NotImplementedError

    def _eval_temporal(self, rel: TemporalRel) -> set:
        ids_a = self._resolve_dancer_name(rel.dancer_a)
        ids_b = self._resolve_dancer_name(rel.dancer_b)
        allowed = self._resolve_step_constraint(rel)
        evaluate = relation_evaluator(rel.relation)
        out: set = set()
        for ida in ids_a:
            for idb in ids_b:
                if ida == idb:
                    continue
                for perf_a, perf_b, watching_a in self._scene_feed(rel, ida, idb):
                    for shots_a, shots_b, _steps in evaluate(perf_a, perf_b, watching_a, allowed):
                        out.update(shots_a)
                        out.update(shots_b)
        return out

    def _eval_spatial(self, rel: SpatialRel) -> set:
        raise NotImplementedError


def _pairable(node: And) -> tuple[str, str, str] | None:
    """(dancer value, other facet, other value) when the pairing rule applies."""
    left, right = node.left, node.right
    if not (isinstance(left, FacetAtom) and isinstance(right, FacetAtom)):
        return None
    for dancer, other in ((left, right), (right, left)):
        if dancer.facet == "dancer" and other.facet in PAIRABLE_FACETS:
            return dancer.value, other.facet, other.value
    return None


class SequentialScanEngine(_EngineBase):
    """Baseline engine: every containment atom walks the full annotation set."""

    def __init__(self, corpus: Corpus, synonyms: dict[str, tuple[str, ...]] | None = None):
        super().__init__(corpus, synonyms)
        self._dancer_ids_by_name = {}
        for d in corpus.dancers.values():
            key = normalize_key(d.name)
            self._dancer_ids_by_name[key] = self._dancer_ids_by_name.get(key, ()) + (d.id,)
        self._step_ids_by_name = {}
        self._step_ids_by_class = {}
        for sd in corpus.step_defs.values():
            nkey = normalize_key(sd.name)
            ckey = sd.step_class.casefold()
            self._step_ids_by_name[nkey] = self._step_ids_by_name.get(nkey, ()) + (sd.id,)
            self._step_ids_by_class[ckey] = self._step_ids_by_class.get(ckey, ()) + (sd.id,)

    def _scene_feed(self, rel: TemporalRel, dancer_a: str, dancer_b: str):
        scenes = self.corpus.scenes.values()
        performances = corpus_performances(self.corpus, scenes, (dancer_a, dancer_b))
        scenes_a, scenes_b = performances[dancer_a], performances[dancer_b]
        observes = rel.relation == "observes"
        watching = corpus_watching(self.corpus, scenes, (dancer_a,))[dancer_a] if observes else {}
        for scene in (watching if observes else scenes_a).keys() & scenes_b.keys():
            yield scenes_a.get(scene, ()), scenes_b[scene], watching.get(scene, ())

    def _occ_matches(self, occ, facet: str, value: str) -> bool:
        if facet == "dancer":
            return normalize_key(self.corpus.dancers[occ.dancer_id].name) == value
        if facet == "step":
            return normalize_key(self.corpus.step_defs[occ.step_def_id].name) == value
        if facet == "step_class":
            return self.corpus.step_defs[occ.step_def_id].step_class.casefold() == value
        if facet == "body_part":
            target = normalize_body_part(value)
            return any(
                normalize_body_part(part) == target
                for part in self.corpus.step_defs[occ.step_def_id].body_parts
            )
        if facet == "posture":
            return normalize_key(occ.posture) == value
        if facet == "reflexion":
            keys = expand_reflexion(value, self.synonyms)
            return normalize_key(occ.reflexion) in keys
        if facet == "instrument":
            return occ.instrument_id is not None and (
                normalize_key(self.corpus.instruments[occ.instrument_id].name) == value
            )
        raise ValueError(f"unknown facet: {facet!r}")

    def _facet_shots(self, facet: str, value: str) -> set[str]:
        if facet in ("background", "costume"):
            from .model import expand_scenes_to_shots

            scene_ids = set()
            for scene in self.corpus.scenes.values():
                if facet == "background":
                    name = self.corpus.backgrounds[scene.background_id].name
                    if normalize_key(name) == value:
                        scene_ids.add(scene.id)
                else:
                    for _dancer_id, costume_ids in scene.costume_map:
                        if any(
                            normalize_key(self.corpus.costumes[cid].name) == value
                            for cid in costume_ids
                        ):
                            scene_ids.add(scene.id)
                            break
            return expand_scenes_to_shots(self.corpus, scene_ids)
        out = set()
        for shot in self.corpus.shots.values():
            if any(self._occ_matches(occ, facet, value) for occ in shot.occurrences):
                out.add(shot.id)
        return out

    def _paired_shots(self, dancer_value: str, facet: str, value: str) -> set[str]:
        out = set()
        for shot in self.corpus.shots.values():
            for occ in shot.occurrences:
                if self._occ_matches(occ, "dancer", dancer_value) and self._occ_matches(
                    occ, facet, value
                ):
                    out.add(shot.id)
                    break
        return out

    def _eval_spatial(self, rel: SpatialRel) -> set[str]:
        """Shots holding a stored triplet (a, relation, b).

        Triplets are directional and matched as annotated; no converse is
        inferred. performing=true further requires both dancers to have an
        occurrence in the shot.
        """
        ids_a = set(self._resolve_dancer_name(rel.dancer_a))
        ids_b = set(self._resolve_dancer_name(rel.dancer_b))
        out: set[str] = set()
        for shot in self.corpus.shots.values():
            for trip in shot.spatial_triplets:
                if trip.relation != rel.relation:
                    continue
                if trip.dancer1 not in ids_a or trip.dancer2 not in ids_b:
                    continue
                if rel.performing and (
                    shot.occurrence_of(trip.dancer1) is None
                    or shot.occurrence_of(trip.dancer2) is None
                ):
                    continue
                out.add(shot.id)
                break
        return out


class IndexedEngine(_EngineBase):
    """Engine backed by the inverted files, working on ordinals.

    Runs from an index set alone. Given a corpus too, it checks a prebuilt
    index set against the corpus's fingerprint, or builds one from the
    corpus, unpinned, since nothing compares it with a file. Bodies
    evaluate to sets of shot ordinals; their IDs are looked up once, when
    the result is lifted.
    """

    def __init__(
        self,
        corpus: Corpus | None,
        index: IndexSet | None = None,
        synonyms: dict[str, tuple[str, ...]] | None = None,
    ):
        super().__init__(corpus, synonyms)
        if index is None:
            if corpus is None:
                raise TypeError("IndexedEngine needs a corpus, an index set or both")
            index = build_index(corpus, pinned=False)
        elif corpus is not None:
            index.check_corpus(corpus)
        self.index = index
        # dancer name -> ordinals of the scenes holding an occurrence of it,
        # filled on first use
        self._scenes_by_dancer: dict[str, frozenset[int]] = {}

    # Everything the engine reads from its index set is read on first use,
    # so a query decodes only the index files its body needs.

    @cached_property
    def _dancer_ids_by_name(self) -> dict[str, tuple[int, ...]]:
        return self.index.dancers_by_name

    @cached_property
    def _step_ids_by_name(self) -> dict[str, tuple[int, ...]]:
        return self.index.step_defs_by_name

    @cached_property
    def _step_ids_by_class(self) -> dict[str, tuple[int, ...]]:
        return self.index.step_defs_by_class

    @cached_property
    def _shots_of_scene(self) -> list[list[int]]:
        """Scene ordinal -> its shot ordinals, in scene order."""
        ix = self.index
        scene_of_shot = ix.scene_of_shot
        shots_of_scene: list[list[int]] = [[] for _ in ix.scenes]
        for shot in ix.shot_order:
            shots_of_scene[scene_of_shot[shot]].append(shot)
        return shots_of_scene

    @cached_property
    def _first_occurrence(self) -> list[int]:
        """Shot ordinal -> its first occurrence ordinal, with one more entry
        for the end: occurrences are numbered in shot order, so each shot's
        are one range of ordinals."""
        ix = self.index
        # scene_of_shot has one entry per shot, and every temporal query
        # reads it before it gets here
        counts = [0] * (len(ix.scene_of_shot) + 1)
        for shot in ix.shot_of_occurrence:
            counts[shot + 1] += 1
        return list(accumulate(counts))

    def _shot_ids(self, shots: set[int]) -> set[str]:
        return set(map(self.index.shots.__getitem__, shots))

    def _lift(self, shots: set[int], granularity: Granularity) -> list[str]:
        ix = self.index
        if granularity is Granularity.SHOT:
            ids, ordinals = ix.shots, shots
        elif granularity is Granularity.SCENE:
            ids, ordinals = ix.scenes, set(map(ix.scene_of_shot.__getitem__, shots))
        elif granularity is Granularity.COMPOUND_SCENE:
            scenes = set(map(ix.scene_of_shot.__getitem__, shots))
            ids = ix.compound_scenes
            ordinals = set(map(ix.compound_scene_of_scene.__getitem__, scenes))
        else:
            raise ValueError(f"unsupported granularity: {granularity!r}")
        # ID tables are sorted, so ascending ordinals give ascending IDs
        return list(map(ids.__getitem__, sorted(ordinals)))

    def _postings(self, facet: str, value: str):
        """Ordinals posted under a facet term: occurrences, or scenes for
        background and costume."""
        try:
            table = getattr(self.index, _FILE_OF_FACET[facet])
        except KeyError:
            raise ValueError(f"unknown facet: {facet!r}") from None
        if facet == "reflexion":
            keys = expand_reflexion(value, self.synonyms)
            return chain.from_iterable(map(table.get, keys, repeat(())))
        if facet == "body_part":
            value = normalize_body_part(value)
        return table.get(value, ())

    def _facet_shots(self, facet: str, value: str) -> set[int]:
        if facet in ("background", "costume"):
            postings = self._postings(facet, value)
            return set(chain.from_iterable(map(self._shots_of_scene.__getitem__, postings)))
        # the map is read before the postings, so a bad map is reported
        # first, as when every file is checked in field order
        shot_of = self.index.shot_of_occurrence
        return set(map(shot_of.__getitem__, self._postings(facet, value)))

    def _paired_shots(self, dancer_value: str, facet: str, value: str) -> set[int]:
        # every occurrence left satisfies both halves, so each of its shots
        # holds one occurrence pairing the dancer with the other term
        occurrences = set(self._postings("dancer", dancer_value))
        occurrences.intersection_update(self._postings(facet, value))
        return set(map(self.index.shot_of_occurrence.__getitem__, occurrences))

    def _scenes_of_dancer(self, name: str) -> frozenset[int]:
        scenes = self._scenes_by_dancer.get(name)
        if scenes is None:
            ix = self.index
            shots = map(ix.shot_of_occurrence.__getitem__, ix.dancers.get(name, ()))
            scenes = frozenset(map(ix.scene_of_shot.__getitem__, shots))
            self._scenes_by_dancer[name] = scenes
        return scenes

    def _scene_feed(self, rel: TemporalRel, dancer_a: int, dancer_b: int):
        """Only the scenes where the relation can hold, each built from the
        index arrays when it is reached.

        Each dancer name's scenes are resolved once per engine, so a
        repeated query prunes with one intersection. A name's scenes may
        include some where this dancer, one of several with the name, has
        no performance; every evaluator finds nothing there. Nothing else
        is kept between queries: caching every dancer's performances made
        the first queries after a load allocate enough to set off a full
        pass of the cyclic garbage collector over the loaded data.
        """
        ix = self.index
        watching: frozenset[int] = frozenset()
        if rel.relation == "observes":
            watching = frozenset(ix.observer_shots.get(ix.dancer_ids[dancer_a], ()))
            scenes = frozenset(map(ix.scene_of_shot.__getitem__, watching))
        else:
            scenes = self._scenes_of_dancer(rel.dancer_a)
        scenes &= self._scenes_of_dancer(rel.dancer_b)
        if not scenes:
            return
        # Read once per query, not once per scene: CPython does not
        # specialize reads of an attribute that shadows a class's
        # descriptor, as every index file and cached property does.
        shots_of_scene, first = self._shots_of_scene, self._first_occurrence
        dancer_of, step_of = ix.dancer_of_occurrence, ix.step_def_of_occurrence
        starts, ends = ix.shot_starts, ix.shot_ends

        def performances(dancer: int, scene: int) -> list[tuple]:
            return [
                (shot, starts[shot], ends[shot], step_of[o])
                for shot in shots_of_scene[scene]
                for o in range(first[shot], first[shot + 1])
                if dancer_of[o] == dancer
            ]

        for scene in scenes:
            yield performances(dancer_a, scene), performances(dancer_b, scene), watching

    def _eval_spatial(self, rel: SpatialRel) -> set[int]:
        """The shots posted under (relation, a, b) in the spatial file."""
        ix = self.index
        dancer_ids = ix.dancer_ids
        ids_a = map(dancer_ids.__getitem__, self._resolve_dancer_name(rel.dancer_a))
        ids_b = list(map(dancer_ids.__getitem__, self._resolve_dancer_name(rel.dancer_b)))
        by_first = (ix.spatial_performing if rel.performing else ix.spatial).get(rel.relation, {})
        out: set[int] = set()
        for id_a in ids_a:
            by_second = by_first.get(id_a, {})
            for id_b in ids_b:
                out.update(by_second.get(id_b, ()))
        return out
