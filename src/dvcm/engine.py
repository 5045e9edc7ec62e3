"""Query execution over a corpus: sequential scan and inverted-file engines.

Both engines implement the same semantics and must return identical results
for every query; the benchmark enforces this per query. Containment bodies
evaluate to shot-ID sets bottom-up ("and" intersects, "or" unions) and the
result is lifted to the requested granularity at the end. Scene-valued
facets (background, costume) contribute the shots of their matching scenes.

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

Temporal and spatial bodies are evaluated by shared per-scene / per-shot
logic; the indexed engine uses the dancer file to skip scenes in which the
relation cannot hold. Result shots of a temporal relation are every shot
mentioned by a witness.
"""

from __future__ import annotations

from .index import IndexSet, build_index
from .model import Corpus, expand_scenes_to_shots, lift_granularity
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
from .temporal import (
    ALLEN_RELATIONS,
    evaluate_allen_between_dancers,
    evaluate_dancer_relation,
)

# Facets that may pair with dancer= at the occurrence level.
PAIRABLE_FACETS = frozenset({"step", "step_class", "posture", "reflexion"})


class UnknownNameError(ValueError):
    """A temporal or spatial call names a dancer or step the corpus lacks.

    Containment atoms with unknown terms simply match nothing; relation
    calls are stricter because a misspelled dancer would otherwise look
    like a meaningful empty answer.
    """


class _EngineBase:
    """Shared evaluation structure; subclasses provide atom resolution."""

    def __init__(self, corpus: Corpus, synonyms: dict[str, tuple[str, ...]] | None = None):
        self.corpus = corpus
        self.synonyms = load_synonym_table() if synonyms is None else synonyms
        # Catalog name tables; these are entity catalogs, not annotations,
        # so the sequential engine may use them too.
        self._dancer_ids_by_name: dict[str, tuple[str, ...]] = {}
        for d in corpus.dancers.values():
            key = normalize_key(d.name)
            self._dancer_ids_by_name[key] = self._dancer_ids_by_name.get(key, ()) + (d.id,)
        self._step_ids_by_name: dict[str, tuple[str, ...]] = {}
        self._step_ids_by_class: dict[str, tuple[str, ...]] = {}
        for sd in corpus.step_defs.values():
            nkey = normalize_key(sd.name)
            ckey = sd.step_class.casefold()
            self._step_ids_by_name[nkey] = self._step_ids_by_name.get(nkey, ()) + (sd.id,)
            self._step_ids_by_class[ckey] = self._step_ids_by_class.get(ckey, ()) + (sd.id,)

    # -- public entry points ------------------------------------------------

    def execute(self, query: Query) -> list[str]:
        """Run a parsed query; result IDs sorted at the query's granularity."""
        shots = self.shots_for_body(query.body)
        return lift_granularity(self.corpus, shots, query.granularity)

    def execute_text(self, text: str) -> list[str]:
        return self.execute(parse_query(text))

    def shots_for_body(self, body) -> set[str]:
        if isinstance(body, (FacetAtom, And, Or)):
            return self._eval_node(body)
        if isinstance(body, TemporalRel):
            return self._eval_temporal(body)
        if isinstance(body, SpatialRel):
            return self._eval_spatial(body)
        if isinstance(body, SpatioTemporal):
            return self.shots_for_body(body.first) & self.shots_for_body(body.second)
        raise TypeError(f"not a query body: {body!r}")

    # -- containment --------------------------------------------------------

    def _eval_node(self, node) -> set[str]:
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

    def _facet_shots(self, facet: str, value: str) -> set[str]:
        raise NotImplementedError

    def _paired_shots(self, dancer_value: str, facet: str, value: str) -> set[str]:
        raise NotImplementedError

    # -- temporal / spatial ---------------------------------------------------

    def _resolve_step_constraint(self, rel: TemporalRel) -> frozenset[str] | None:
        if rel.step is not None:
            ids = self._step_ids_by_name.get(rel.step, ())
            if not ids:
                raise UnknownNameError(f"unknown step: {rel.step!r}")
            return frozenset(ids)
        if rel.step_class is not None:
            # a class with no definitions is legal and filters everything out
            return frozenset(self._step_ids_by_class.get(rel.step_class, ()))
        return None

    def _resolve_dancer_name(self, name: str) -> tuple[str, ...]:
        ids = self._dancer_ids_by_name.get(name, ())
        if not ids:
            raise UnknownNameError(f"unknown dancer: {name!r}")
        return ids

    def _temporal_scene_ids(self, rel: TemporalRel):
        """Scenes worth evaluating; the base engine tries all of them."""
        return self.corpus.scenes.keys()

    def _eval_temporal(self, rel: TemporalRel) -> set[str]:
        ids_a = self._resolve_dancer_name(rel.dancer_a)
        ids_b = self._resolve_dancer_name(rel.dancer_b)
        allowed = self._resolve_step_constraint(rel)
        out: set[str] = set()
        for scene_id in self._temporal_scene_ids(rel):
            scene = self.corpus.scenes[scene_id]
            for ida in ids_a:
                for idb in ids_b:
                    if ida == idb:
                        continue
                    if rel.relation in ALLEN_RELATIONS:
                        witnesses = evaluate_allen_between_dancers(
                            self.corpus, scene, rel.relation, ida, idb, allowed
                        )
                    else:
                        witnesses = evaluate_dancer_relation(
                            self.corpus, scene, rel.relation, ida, idb, allowed
                        )
                    for w in witnesses:
                        out |= w.shot_ids()
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


class IndexedEngine(_EngineBase):
    """Engine backed by the eight inverted files.

    Accepts a prebuilt index set (it must carry the corpus's fingerprint)
    or builds one from the corpus.
    """

    def __init__(
        self,
        corpus: Corpus,
        index: IndexSet | None = None,
        synonyms: dict[str, tuple[str, ...]] | None = None,
    ):
        super().__init__(corpus, synonyms)
        if index is None:
            index = build_index(corpus)
        else:
            index.check_corpus(corpus)
        self.index = index
        # dancer name -> scenes holding an occurrence of it, filled on first use
        self._scenes_by_dancer: dict[str, frozenset[str]] = {}

    def _occ_postings(self, facet: str, value: str) -> set[str]:
        """Occurrence IDs matching one occurrence-valued facet."""
        ix = self.index
        if facet == "dancer":
            return set(ix.dancers.get(value, ()))
        if facet == "posture":
            return set(ix.postures.get(value, ()))
        if facet == "reflexion":
            out: set[str] = set()
            for key in expand_reflexion(value, self.synonyms):
                out.update(ix.reflexions.get(key, ()))
            return out
        if facet == "instrument":
            return set(ix.instruments.get(value, ()))
        if facet == "body_part":
            return set(ix.body_parts.get(normalize_body_part(value), ()))
        if facet in ("step", "step_class"):
            # resolved through the step catalog plus each definition's
            # occurrence record rather than a per-term posting file
            table = self._step_ids_by_name if facet == "step" else self._step_ids_by_class
            out = set()
            for step_id in table.get(value, ()):
                out.update(self.corpus.occ_ids_for_step_def(step_id))
            return out
        raise ValueError(f"unknown facet: {facet!r}")

    def _facet_shots(self, facet: str, value: str) -> set[str]:
        if facet == "background":
            return expand_scenes_to_shots(
                self.corpus, set(self.index.backgrounds.get(value, ()))
            )
        if facet == "costume":
            return expand_scenes_to_shots(
                self.corpus, set(self.index.costumes.get(value, ()))
            )
        return self.index.shots_of_occurrences(self._occ_postings(facet, value))

    def _paired_shots(self, dancer_value: str, facet: str, value: str) -> set[str]:
        # every occurrence left satisfies both halves, so each of its shots
        # holds one occurrence pairing the dancer with the other term
        occs = self._occ_postings("dancer", dancer_value) & self._occ_postings(facet, value)
        return self.index.shots_of_occurrences(occs)

    def _scenes_of_dancer(self, name: str) -> frozenset[str]:
        scene_ids = self._scenes_by_dancer.get(name)
        if scene_ids is None:
            shots = self.index.shots_of_occurrences(self.index.dancers.get(name, ()))
            scene_ids = frozenset({self.corpus.shots[sid].scene_id for sid in shots})
            self._scenes_by_dancer[name] = scene_ids
        return scene_ids

    def _temporal_scene_ids(self, rel):
        """Skip scenes where the relation cannot hold.

        Every relation needs dancer_b performing in the scene; all but
        observes need dancer_a performing too (observes needs a merely
        present, which no file records). Each dancer's scenes are resolved
        once per engine, so a repeated query prunes with one intersection.
        Scenes are visited in ID order, the order dvcm writes and so loads
        them in, which evaluates faster than set order.
        """
        scene_ids = self._scenes_of_dancer(rel.dancer_b)
        if rel.relation != "observes":
            scene_ids &= self._scenes_of_dancer(rel.dancer_a)
        return sorted(scene_ids)
