"""Inverted files over a corpus, on dense integer ordinals.

An index set is one file per ``IndexSet`` field after the fingerprint; the
field list is the one definition of the files, and each field's metadata
says what its integers index. Shots, scenes, compound scenes and step
occurrences get dense ordinals at build time:

- ``shots``, ``scenes`` and ``compound_scenes`` are the ID tables: the IDs
  sorted, an entity's ordinal being its position. So ascending ordinals
  map to ascending IDs, the order results are returned in.
- Occurrence ordinals follow shot order, then the order of
  ``Shot.occurrences`` within each shot. Occurrences have no ID table;
  nothing turns one back into an ID.
- ``shot_of_occurrence``, ``scene_of_shot`` and ``compound_scene_of_scene``
  are one-array maps: entry ``i`` is the shot of occurrence ``i``, the
  scene of shot ``i``, the compound scene of scene ``i``. They are the
  package's one occurrence → shot → scene → compound-scene chain.

Seven posting files are keyed by normalized terms and post occurrence
ordinals: dancer name, body part (laterality stripped), posture, reflexion,
instrument name, step name and step class (casefolded). Two post scene
ordinals: background name and costume name. ``spatial`` is keyed by
relation, then the first and the second dancer ID of a stored triplet, and
posts the shots holding that triplet; ``spatial_performing`` posts the
subset of them in which both dancers have an occurrence. Each posting list
is ascending and duplicate free. Derived rather than stored: scene → shots
(the inverse of ``scene_of_shot``, built by the engine) and everything the
corpus answers by itself.

An index set is valid for exactly one corpus file and records its
fingerprint, the SHA-256 of the file's bytes, at build time (see
``model.corpus_fingerprint``): reformatting the corpus file, even with
the same content, means rebuilding the index. ``IndexSet.check_corpus``
refuses a corpus with a different fingerprint, and both ``load_index``
and ``IndexedEngine`` call it. It also checks cheap counts: the ID tables
hold one entry per corpus entity, and every occurrence appears exactly
once in ``shot_of_occurrence`` and posts once in each of ``dancers``,
``postures`` and ``reflexions``, so a truncated file is refused; an edit
that keeps those counts is not detected. ``loads_index`` checks that every
integer indexes the table it points into, so an edited file fails with one
line instead of a wrong answer. The file carries a ``"format"`` version
beside ``"fingerprint"`` and ``"files"``; a file of any other format, or
of none, is refused and must be rebuilt. Serialization is canonical (the
text of ``json.dumps(doc, indent=2, sort_keys=True)``), so building the
same corpus twice yields byte-identical files.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _json_string
from operator import lt

from .model import Corpus, corpus_fingerprint, write_text_atomic
from .normalize import normalize_body_part, normalize_key


class IndexMismatchError(Exception):
    """The index was built from a different corpus state."""


class IndexFormatError(Exception):
    """The index file is not a valid serialized index set."""


# Version of the index file layout and of the fingerprint it stores;
# format 4 stores ordinals and the tables that turn them back into IDs.
INDEX_FORMAT = 4


def _file(of: str | None = None, depth: int = 1, length_of: str | None = None):
    """An index file: arrays of ordinals into the ``of`` file, under ``depth``
    levels of objects; an ID table when ``of`` is None. A one-array map has
    one entry per entry of ``length_of``.
    """
    return field(metadata={"of": of, "depth": depth, "length_of": length_of})


_Postings = dict[str, tuple[int, ...]]


@dataclass(frozen=True)
class IndexSet:
    """The ID tables, the ordinal maps and the inverted files of one corpus."""

    fingerprint: str
    shots: tuple[str, ...] = _file(depth=0)
    scenes: tuple[str, ...] = _file(depth=0)
    compound_scenes: tuple[str, ...] = _file(depth=0)
    shot_of_occurrence: tuple[int, ...] = _file("shots", depth=0)
    scene_of_shot: tuple[int, ...] = _file("scenes", depth=0, length_of="shots")
    compound_scene_of_scene: tuple[int, ...] = _file(
        "compound_scenes", depth=0, length_of="scenes"
    )
    dancers: _Postings = _file("shot_of_occurrence")
    body_parts: _Postings = _file("shot_of_occurrence")
    postures: _Postings = _file("shot_of_occurrence")
    reflexions: _Postings = _file("shot_of_occurrence")
    instruments: _Postings = _file("shot_of_occurrence")
    steps: _Postings = _file("shot_of_occurrence")
    step_classes: _Postings = _file("shot_of_occurrence")
    backgrounds: _Postings = _file("scenes")
    costumes: _Postings = _file("scenes")
    spatial: dict[str, dict[str, _Postings]] = _file("shots", depth=3)
    spatial_performing: dict[str, dict[str, _Postings]] = _file("shots", depth=3)

    def check_corpus(self, corpus: Corpus) -> None:
        """Raise IndexMismatchError unless the index was built from this corpus.

        Besides the fingerprint, the ID tables must hold the corpus's entity
        counts and each file in ``_ONCE_PER_OCCURRENCE`` its occurrence
        count, which catches a truncated file at the cost of one pass over
        the postings.
        """
        if self.fingerprint != corpus_fingerprint(corpus):
            raise IndexMismatchError(
                "index fingerprint does not match the corpus; rebuild the index"
            )
        for name in ("shots", "scenes", "compound_scenes"):
            held, expected = len(getattr(self, name)), len(getattr(corpus, name))
            if held != expected:
                raise IndexMismatchError(
                    f"index files.{name} holds {held} ID(s), the corpus has "
                    f"{expected}; rebuild the index"
                )
        occurrences = sum(len(shot.occurrences) for shot in corpus.shots.values())
        for name in _ONCE_PER_OCCURRENCE:
            table = getattr(self, name)
            posted = len(table) if name == "shot_of_occurrence" else sum(map(len, table.values()))
            if posted != occurrences:
                raise IndexMismatchError(
                    f"index files.{name} posts {posted} occurrence(s), the corpus "
                    f"has {occurrences}; rebuild the index"
                )

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

# Files in which each occurrence appears exactly once.
_ONCE_PER_OCCURRENCE = ("shot_of_occurrence", "dancers", "postures", "reflexions")


def _post(table: dict[str, list[int]], key: str, ordinal: int) -> None:
    """Append an ordinal to a posting list; ordinals arrive in ascending order."""
    postings = table.get(key)
    if postings is None:
        table[key] = [ordinal]
    elif postings[-1] != ordinal:
        postings.append(ordinal)


def build_index(corpus: Corpus) -> IndexSet:
    """Scan the corpus once, in ordinal order, and build every file."""
    shot_ids = sorted(corpus.shots)
    scene_ids = sorted(corpus.scenes)
    compound_scene_ids = sorted(corpus.compound_scenes)
    scene_ordinal = {scene_id: i for i, scene_id in enumerate(scene_ids)}
    compound_scene_ordinal = {cs_id: i for i, cs_id in enumerate(compound_scene_ids)}
    dancer_key = {d.id: normalize_key(d.name) for d in corpus.dancers.values()}
    instrument_key = {i.id: normalize_key(i.name) for i in corpus.instruments.values()}
    step_keys = {
        sd.id: (
            normalize_key(sd.name),
            sd.step_class.casefold(),
            {normalize_body_part(part) for part in sd.body_parts},
        )
        for sd in corpus.step_defs.values()
    }
    tables: dict[str, dict] = {name: {} for name in _POSTING_FILES}
    dancers, body_parts, postures, reflexions = (
        tables["dancers"], tables["body_parts"], tables["postures"], tables["reflexions"]
    )
    instruments, steps, step_classes = (
        tables["instruments"], tables["steps"], tables["step_classes"]
    )

    shot_of_occurrence: list[int] = []
    scene_of_shot: list[int] = []
    for shot_ordinal, shot_id in enumerate(shot_ids):
        shot = corpus.shots[shot_id]
        scene_of_shot.append(scene_ordinal[shot.scene_id])
        for occ in shot.occurrences:
            ordinal = len(shot_of_occurrence)
            shot_of_occurrence.append(shot_ordinal)
            step_name, step_class, parts = step_keys[occ.step_def_id]
            _post(dancers, dancer_key[occ.dancer_id], ordinal)
            _post(steps, step_name, ordinal)
            _post(step_classes, step_class, ordinal)
            for part in parts:
                _post(body_parts, part, ordinal)
            _post(postures, normalize_key(occ.posture), ordinal)
            _post(reflexions, normalize_key(occ.reflexion), ordinal)
            if occ.instrument_id is not None:
                _post(instruments, instrument_key[occ.instrument_id], ordinal)
        if shot.spatial_triplets:
            performing = {occ.dancer_id for occ in shot.occurrences}
            for trip in shot.spatial_triplets:
                names = ["spatial"]
                if trip.dancer1 in performing and trip.dancer2 in performing:
                    names.append("spatial_performing")
                for name in names:
                    by_first = tables[name].setdefault(trip.relation, {})
                    _post(by_first.setdefault(trip.dancer1, {}), trip.dancer2, shot_ordinal)

    compound_scene_of_scene: list[int] = []
    for ordinal, scene_id in enumerate(scene_ids):
        scene = corpus.scenes[scene_id]
        compound_scene_of_scene.append(compound_scene_ordinal[scene.compound_scene_id])
        background = corpus.backgrounds[scene.background_id].name
        _post(tables["backgrounds"], normalize_key(background), ordinal)
        for _dancer_id, costume_ids in scene.costume_map:
            for cid in costume_ids:
                _post(tables["costumes"], normalize_key(corpus.costumes[cid].name), ordinal)

    return IndexSet(
        fingerprint=corpus_fingerprint(corpus),
        shots=tuple(shot_ids),
        scenes=tuple(scene_ids),
        compound_scenes=tuple(compound_scene_ids),
        shot_of_occurrence=tuple(shot_of_occurrence),
        scene_of_shot=tuple(scene_of_shot),
        compound_scene_of_scene=tuple(compound_scene_of_scene),
        **{name: _freeze(table) for name, table in tables.items()},
    )


def _freeze(value):
    """Nested objects of arrays, with the arrays as tuples."""
    if isinstance(value, dict):
        return {key: _freeze(item) for key, item in value.items()}
    return tuple(value)


def _write(value, nl: str) -> str:
    """A file, or a part of one, as the JSON encoder indents it at ``nl``."""
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = nl + "  "
    if isinstance(value, dict):
        entries = [
            f"{inner}{_json_string(key)}: {_write(value[key], inner)}" for key in sorted(value)
        ]
        return "{" + ",".join(entries) + nl + "}"
    items = map(_json_string if isinstance(value[0], str) else int.__repr__, value)
    return f"[{inner}{(',' + inner).join(items)}{nl}]"


def index_chunks(index: IndexSet) -> Iterator[str]:
    """The text of the index file, one file of the set to a chunk.

    The text is that of ``json.dumps(document, indent=2, sort_keys=True)``,
    written without the pure-Python indent encoder; the chunks join to
    ``dumps_index``.
    """
    head, nl = '{\n  "files": {', "\n    "
    for name in sorted(f.name for f in _FILES):
        yield f"{head}{nl}{_json_string(name)}: {_write(getattr(index, name), nl)}"
        head = ","
    yield (
        f'\n  }},\n  "fingerprint": {_json_string(index.fingerprint)},'
        f'\n  "format": {INDEX_FORMAT!r}\n}}\n'
    )


def dumps_index(index: IndexSet) -> str:
    return "".join(index_chunks(index))


def save_index(index: IndexSet, path) -> None:
    write_text_atomic(path, index_chunks(index))


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
        if depth == 1 and set(map(type, item.values())) <= {list}:
            arrays.extend(item.values())
            return dict(zip(item, map(tuple, item.values())))
        # the slow path names the entry at fault
        return {key: collect(sub, depth - 1, f"{where}[{key!r}]") for key, sub in item.items()}

    frozen = collect(value, spec["depth"], f"files.{name}")
    entries = arrays[0] if len(arrays) == 1 else list(chain.from_iterable(arrays))
    of = spec["of"]
    if of is None:
        if not set(map(type, entries)) <= {str}:
            raise IndexFormatError(f"files.{name} must be a string array")
        if not all(map(lt, entries, islice(entries, 1, None))):
            raise IndexFormatError(f"files.{name} must be sorted and duplicate free")
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
    return frozen


def loads_index(text: str) -> IndexSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IndexFormatError(f"line {exc.lineno}, col {exc.colno}: {exc.msg}") from None
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
