"""Inverted files over a corpus, on dense integer ordinals.

An index set is one file per ``IndexSet`` field after the fingerprint; the
field list is the one definition of the files, and each field's metadata
says what its integers index. Shots, scenes, compound scenes, dancers, step
definitions and step occurrences get dense ordinals at build time:

- ``shots``, ``scenes``, ``compound_scenes``, ``dancer_ids`` and
  ``step_def_ids`` are the ID tables: the IDs sorted, an entity's ordinal
  being its position. So ascending ordinals map to ascending IDs, the order
  results are returned in.
- Occurrence ordinals follow shot order, then the order of
  ``Shot.occurrences`` within each shot. Occurrences have no ID table;
  nothing turns one back into an ID.
- ``shot_of_occurrence``, ``dancer_of_occurrence``,
  ``step_def_of_occurrence``, ``scene_of_shot`` and
  ``compound_scene_of_scene`` are one-array maps: entry ``i`` is the shot,
  the dancer or the step definition of occurrence ``i``, the scene of shot
  ``i``, the compound scene of scene ``i``. They are the package's one
  occurrence → shot → scene → compound-scene chain.
- ``shot_starts`` and ``shot_ends`` hold each shot's life span in ticks,
  and ``shot_order`` lists the shot ordinals scene by scene, each scene's
  shots in ``Scene.shot_ids`` order.

Seven posting files are keyed by normalized terms and post occurrence
ordinals: dancer name, body part (laterality stripped), posture, reflexion,
instrument name, step name and step class (casefolded). Two post scene
ordinals: background name and costume name. The catalog name tables
``dancers_by_name``, ``step_defs_by_name`` and ``step_defs_by_class`` post
the ordinals of every dancer and step definition, those without an
occurrence too. ``observer_shots`` is keyed by dancer ID and posts the
shots in which that dancer is on screen without an occurrence.
``spatial`` is keyed by relation, then the first and the second dancer ID
of a stored triplet, and posts the shots holding that triplet;
``spatial_performing`` posts the subset of them in which both dancers have
an occurrence. Each posting list is ascending and duplicate free. Derived
rather than stored: scene → shots (from ``shot_order`` and
``scene_of_shot``, by the engine) and everything the corpus answers by
itself.

So an index set answers every query by itself. It is valid for exactly one
corpus file and records its fingerprint, the SHA-256 of the file's bytes,
at build time (see ``model.corpus_fingerprint``): reformatting the corpus
file, even with the same content, means rebuilding the index.
``IndexSet.check_fingerprint`` refuses any other file. ``loads_index``
checks that every integer indexes the table it points into, and cheap
counts: each one-array map holds one entry per entry of its table, every
occurrence posts once in each of ``dancers``, ``postures``,
``reflexions``, ``steps`` and ``step_classes``, and every dancer and step
definition once in each catalog name table; and ``shot_of_occurrence``
ascends, as occurrences are numbered in shot order. So an edited or
truncated file fails with one line instead of a wrong answer; an edit that
keeps those counts, ranges and that order is not detected. The file
carries a ``"format"`` version beside ``"fingerprint"`` and ``"files"``; a
file of any other format, or of none, is refused and must be rebuilt.
The file is the text of ``json.dumps(doc, separators=(",", ":"),
sort_keys=True)`` and a newline, so building the same corpus twice yields
byte-identical files.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from operator import le, lt
from typing import TYPE_CHECKING

from .normalize import normalize_body_part, normalize_key
from .vocab import IndexFormatError, IndexMismatchError

# The corpus model is imported only by the functions that build, check or
# write an index: a query answered from a saved index needs none of it.
if TYPE_CHECKING:
    from .model import Corpus

# Version of the index file layout and of the fingerprint it stores;
# format 5 holds every fact a query reads, so no query needs the corpus.
INDEX_FORMAT = 5

# The ``of`` of a file of times: non-negative integer ticks, not ordinals.
TICKS = "ticks"


def _file(
    of: str | None = None,
    depth: int = 1,
    length_of: str | None = None,
    once_per: str | None = None,
):
    """An index file: arrays of ordinals into the ``of`` file, under ``depth``
    levels of objects; an ID table when ``of`` is None. A one-array map has
    one entry per entry of ``length_of``; a file ``once_per`` a table posts
    each of that table's entries exactly once, so it holds as many entries.
    """
    return field(
        metadata={"of": of, "depth": depth, "length_of": length_of, "once_per": once_per}
    )


_Postings = dict[str, tuple[int, ...]]


@dataclass(frozen=True)
class IndexSet:
    """The ID tables, the ordinal maps and the inverted files of one corpus."""

    fingerprint: str
    shots: tuple[str, ...] = _file(depth=0)
    scenes: tuple[str, ...] = _file(depth=0)
    compound_scenes: tuple[str, ...] = _file(depth=0)
    dancer_ids: tuple[str, ...] = _file(depth=0)
    step_def_ids: tuple[str, ...] = _file(depth=0)
    shot_of_occurrence: tuple[int, ...] = _file("shots", depth=0)
    dancer_of_occurrence: tuple[int, ...] = _file(
        "dancer_ids", depth=0, length_of="shot_of_occurrence"
    )
    step_def_of_occurrence: tuple[int, ...] = _file(
        "step_def_ids", depth=0, length_of="shot_of_occurrence"
    )
    scene_of_shot: tuple[int, ...] = _file("scenes", depth=0, length_of="shots")
    compound_scene_of_scene: tuple[int, ...] = _file(
        "compound_scenes", depth=0, length_of="scenes"
    )
    shot_order: tuple[int, ...] = _file("shots", depth=0, length_of="shots")
    shot_starts: tuple[int, ...] = _file(TICKS, depth=0, length_of="shots")
    shot_ends: tuple[int, ...] = _file(TICKS, depth=0, length_of="shots")
    dancers: _Postings = _file("shot_of_occurrence", once_per="shot_of_occurrence")
    body_parts: _Postings = _file("shot_of_occurrence")
    postures: _Postings = _file("shot_of_occurrence", once_per="shot_of_occurrence")
    reflexions: _Postings = _file("shot_of_occurrence", once_per="shot_of_occurrence")
    instruments: _Postings = _file("shot_of_occurrence")
    steps: _Postings = _file("shot_of_occurrence", once_per="shot_of_occurrence")
    step_classes: _Postings = _file("shot_of_occurrence", once_per="shot_of_occurrence")
    backgrounds: _Postings = _file("scenes")
    costumes: _Postings = _file("scenes")
    dancers_by_name: _Postings = _file("dancer_ids", once_per="dancer_ids")
    step_defs_by_name: _Postings = _file("step_def_ids", once_per="step_def_ids")
    step_defs_by_class: _Postings = _file("step_def_ids", once_per="step_def_ids")
    observer_shots: _Postings = _file("shots")
    spatial: dict[str, dict[str, _Postings]] = _file("shots", depth=3)
    spatial_performing: dict[str, dict[str, _Postings]] = _file("shots", depth=3)

    def check_fingerprint(self, fingerprint: str) -> None:
        """Raise IndexMismatchError unless the index was built from the
        corpus file with this fingerprint."""
        if self.fingerprint != fingerprint:
            raise IndexMismatchError(
                "index fingerprint does not match the corpus; rebuild the index"
            )

    def check_corpus(self, corpus: Corpus) -> None:
        """Raise IndexMismatchError unless the index was built from this corpus."""
        from .model import corpus_fingerprint

        self.check_fingerprint(corpus_fingerprint(corpus))

    # Format 3's reading of the index, kept only because the benchmark's
    # trace counts (perfbench/layers.py) read it; nothing in dvcm calls them.

    @property
    def occurrence_shots(self) -> dict[int, tuple[int]]:
        """Format 3's occurrence → (shot,) file: one shot per occurrence."""
        return dict(enumerate(zip(self.shot_of_occurrence)))

    def shots_of_occurrences(self, occurrences) -> set[str]:
        """The IDs of the shots holding the given occurrence ordinals."""
        shots = set(map(self.shot_of_occurrence.__getitem__, occurrences))
        return set(map(self.shots.__getitem__, shots))


_FILES = tuple(f for f in fields(IndexSet) if f.name != "fingerprint")
_POSTING_FILES = tuple(f.name for f in _FILES if f.metadata["depth"])


def _post(table: dict[str, list[int]], key: str, ordinal: int) -> None:
    """Append an ordinal to a posting list unless it ends with it already;
    ordinals arrive in ascending order."""
    postings = table.get(key)
    if postings is None:
        table[key] = [ordinal]
    elif postings[-1] != ordinal:
        postings.append(ordinal)


class _NormalizedKeys(dict):
    """text -> normalize_key(text), computed once per distinct text."""

    def __missing__(self, text: str) -> str:
        key = self[text] = normalize_key(text)
        return key


def build_index(corpus: Corpus, *, pinned: bool = True) -> IndexSet:
    """Scan the corpus once, in ordinal order, and build every file.

    With ``pinned=False`` the fingerprint is left empty rather than
    computed: such a set serves an engine over this very corpus object, and
    matches no corpus file if it is saved.
    """
    from .model import corpus_fingerprint

    shot_ids = sorted(corpus.shots)
    scene_ids = sorted(corpus.scenes)
    compound_scene_ids = sorted(corpus.compound_scenes)
    dancer_ids = sorted(corpus.dancers)
    step_def_ids = sorted(corpus.step_defs)
    ordinal_of_shot = {shot_id: i for i, shot_id in enumerate(shot_ids)}
    scene_ordinal = {scene_id: i for i, scene_id in enumerate(scene_ids)}
    compound_scene_ordinal = {cs_id: i for i, cs_id in enumerate(compound_scene_ids)}
    dancer_ordinal = {dancer_id: i for i, dancer_id in enumerate(dancer_ids)}
    step_def_ordinal = {sd_id: i for i, sd_id in enumerate(step_def_ids)}
    keys = _NormalizedKeys()
    dancer_key = {d.id: keys[d.name] for d in corpus.dancers.values()}
    instrument_key = {i.id: keys[i.name] for i in corpus.instruments.values()}
    step_keys = {
        sd.id: (
            keys[sd.name],
            sd.step_class.casefold(),
            {normalize_body_part(part) for part in sd.body_parts},
        )
        for sd in corpus.step_defs.values()
    }
    # Each ordinal reaches a posting list of a depth-1 file once, except in
    # costumes (a scene may give several dancers one costume) and in the
    # spatial files (a shot may repeat a triplet); ``_post`` dedupes those.
    tables: dict[str, dict] = {
        f.name: defaultdict(list) if f.metadata["depth"] == 1 else {}
        for f in _FILES
        if f.metadata["depth"]
    }
    dancers, body_parts, postures, reflexions = (
        tables["dancers"], tables["body_parts"], tables["postures"], tables["reflexions"]
    )
    instruments, steps, step_classes, observer_shots = (
        tables["instruments"], tables["steps"], tables["step_classes"],
        tables["observer_shots"],
    )

    shot_of_occurrence: list[int] = []
    dancer_of_occurrence: list[int] = []
    step_def_of_occurrence: list[int] = []
    scene_of_shot: list[int] = []
    shot_starts: list[int] = []
    shot_ends: list[int] = []
    for shot_ordinal, shot_id in enumerate(shot_ids):
        shot = corpus.shots[shot_id]
        scene_of_shot.append(scene_ordinal[shot.scene_id])
        shot_starts.append(shot.life_span.start)
        shot_ends.append(shot.life_span.end)
        for occ in shot.occurrences:
            ordinal = len(shot_of_occurrence)
            shot_of_occurrence.append(shot_ordinal)
            dancer_of_occurrence.append(dancer_ordinal[occ.dancer_id])
            step_def_of_occurrence.append(step_def_ordinal[occ.step_def_id])
            step_name, step_class, parts = step_keys[occ.step_def_id]
            dancers[dancer_key[occ.dancer_id]].append(ordinal)
            steps[step_name].append(ordinal)
            step_classes[step_class].append(ordinal)
            for part in parts:
                body_parts[part].append(ordinal)
            postures[keys[occ.posture]].append(ordinal)
            reflexions[keys[occ.reflexion]].append(ordinal)
            if occ.instrument_id is not None:
                instruments[instrument_key[occ.instrument_id]].append(ordinal)
        performing = {occ.dancer_id for occ in shot.occurrences}
        if len(performing) != len(shot.dancer_ids):
            for dancer_id in shot.dancer_ids - performing:
                observer_shots[dancer_id].append(shot_ordinal)
        for trip in shot.spatial_triplets:
            names = ["spatial"]
            if trip.dancer1 in performing and trip.dancer2 in performing:
                names.append("spatial_performing")
            for name in names:
                by_first = tables[name].setdefault(trip.relation, {})
                _post(by_first.setdefault(trip.dancer1, {}), trip.dancer2, shot_ordinal)

    compound_scene_of_scene: list[int] = []
    shot_order: list[int] = []
    for ordinal, scene_id in enumerate(scene_ids):
        scene = corpus.scenes[scene_id]
        compound_scene_of_scene.append(compound_scene_ordinal[scene.compound_scene_id])
        shot_order.extend(map(ordinal_of_shot.__getitem__, scene.shot_ids))
        tables["backgrounds"][keys[corpus.backgrounds[scene.background_id].name]].append(ordinal)
        for _dancer_id, costume_ids in scene.costume_map:
            for cid in costume_ids:
                _post(tables["costumes"], keys[corpus.costumes[cid].name], ordinal)

    for ordinal, dancer_id in enumerate(dancer_ids):
        tables["dancers_by_name"][dancer_key[dancer_id]].append(ordinal)
    for ordinal, sd_id in enumerate(step_def_ids):
        step_name, step_class, _parts = step_keys[sd_id]
        tables["step_defs_by_name"][step_name].append(ordinal)
        tables["step_defs_by_class"][step_class].append(ordinal)

    return IndexSet(
        fingerprint=corpus_fingerprint(corpus) if pinned else "",
        shots=tuple(shot_ids),
        scenes=tuple(scene_ids),
        compound_scenes=tuple(compound_scene_ids),
        dancer_ids=tuple(dancer_ids),
        step_def_ids=tuple(step_def_ids),
        shot_of_occurrence=tuple(shot_of_occurrence),
        dancer_of_occurrence=tuple(dancer_of_occurrence),
        step_def_of_occurrence=tuple(step_def_of_occurrence),
        scene_of_shot=tuple(scene_of_shot),
        compound_scene_of_scene=tuple(compound_scene_of_scene),
        shot_order=tuple(shot_order),
        shot_starts=tuple(shot_starts),
        shot_ends=tuple(shot_ends),
        **{name: _freeze(table) for name, table in tables.items()},
    )


def _freeze(value):
    """Nested objects of arrays, with the arrays as tuples."""
    if isinstance(value, dict):
        return {key: _freeze(item) for key, item in value.items()}
    return tuple(value)


def dumps_index(index: IndexSet) -> str:
    files = {f.name: getattr(index, f.name) for f in _FILES}
    doc = {"files": files, "fingerprint": index.fingerprint, "format": INDEX_FORMAT}
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def save_index(index: IndexSet, path) -> None:
    from .model import write_text_atomic

    write_text_atomic(path, (dumps_index(index),))


def _load_file(name: str, value, spec, loaded: dict) -> object:
    """One file of a decoded document, frozen, with every entry checked.

    Each check is one C-level pass over all the file's entries at once.
    """
    arrays: list[list] = []

    def collect(item, depth: int, where: str):
        if depth == 0:
            if type(item) is not list:
                raise IndexFormatError(f"{where} must be an array")
            arrays.append(item)
            return tuple(item)
        if type(item) is not dict:
            raise IndexFormatError(f"{where} must be an object")
        return {key: collect(sub, depth - 1, f"{where}[{key!r}]") for key, sub in item.items()}

    frozen = collect(value, spec["depth"], f"files.{name}")
    entries = arrays[0] if len(arrays) == 1 else list(chain.from_iterable(arrays))
    of = spec["of"]
    if of is None:
        if not set(map(type, entries)) <= {str}:
            raise IndexFormatError(f"files.{name} must be a string array")
        if not all(map(lt, entries, islice(entries, 1, None))):
            raise IndexFormatError(f"files.{name} must be sorted and duplicate free")
    elif of == TICKS:
        if entries and (not set(map(type, entries)) <= {int} or min(entries) < 0):
            raise IndexFormatError(f"files.{name} must hold non-negative integer ticks")
    elif entries:
        size = len(loaded[of])
        if not set(map(type, entries)) <= {int} or min(entries) < 0 or max(entries) >= size:
            raise IndexFormatError(
                f"files.{name} must hold integer ordinals into files.{of}, from 0 to {size - 1}"
            )
    length_of = spec["length_of"]
    if length_of is not None and len(entries) != len(loaded[length_of]):
        raise IndexFormatError(
            f"files.{name} must hold one entry per entry of files.{length_of}"
        )
    once_per = spec["once_per"]
    if once_per is not None and len(entries) != len(loaded[once_per]):
        raise IndexFormatError(
            f"files.{name} must post each of the {len(loaded[once_per])} entries of "
            f"files.{once_per} once, and posts {len(entries)}; rebuild the index"
        )
    return frozen


def loads_index(text: str) -> IndexSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IndexFormatError(f"line {exc.lineno}, col {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise IndexFormatError("nested too deeply to decode") from None
    if not isinstance(doc, dict) or set(doc) - {"format"} != {"fingerprint", "files"}:
        raise IndexFormatError("expected an object with 'format', 'fingerprint' and 'files'")
    if doc.get("format") != INDEX_FORMAT:
        found = repr(doc["format"]) if "format" in doc else "missing"
        raise IndexFormatError(
            f"index format is {found}, expected {INDEX_FORMAT}; rebuild the index"
        )
    if not isinstance(doc["fingerprint"], str):
        raise IndexFormatError("fingerprint must be a string")
    files = doc["files"]
    names = [f.name for f in _FILES]
    if not isinstance(files, dict) or set(files) != set(names):
        raise IndexFormatError(f"'files' must hold exactly {sorted(names)}")
    loaded: dict[str, object] = {}
    for f in _FILES:
        loaded[f.name] = _load_file(f.name, files[f.name], f.metadata, loaded)
    shot_of_occurrence = loaded["shot_of_occurrence"]
    if not all(map(le, shot_of_occurrence, islice(shot_of_occurrence, 1, None))):
        raise IndexFormatError(
            "files.shot_of_occurrence must be ascending: occurrences are numbered in shot order"
        )
    return IndexSet(fingerprint=doc["fingerprint"], **loaded)


def load_index(path, corpus: Corpus | None = None) -> IndexSet:
    """Read an index file; when a corpus is supplied, pin it to the index.

    Raises IndexMismatchError if the stored fingerprint does not match the
    corpus, which means the index was built from different data.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            index = loads_index(fh.read())
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"byte {exc.start}: not UTF-8: {exc.reason}") from None
    if corpus is not None:
        index.check_corpus(corpus)
    return index
