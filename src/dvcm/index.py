"""Inverted files over a corpus.

Eight files make up an index set, one per ``IndexSet`` field after the
fingerprint; the field list is the one definition of the files and of
their order. Five are keyed by normalized facet terms and post
step-occurrence IDs: dancer name, body part (laterality stripped),
posture, reflexion and instrument name. Two post scene IDs: background name
and costume name. The last, ``occurrence_shots``, maps each occurrence ID
to the shot holding it; it is the one occurrence-to-shot map of the
package, and it is how occurrence-level intersections land back on shots.

An index set is valid for exactly one corpus file and records its
fingerprint, the SHA-256 of the file's bytes, at build time (see
``model.corpus_fingerprint``): reformatting the corpus file, even with
the same content, means rebuilding the index. ``IndexSet.check_corpus``
refuses a corpus with a different fingerprint, and both ``load_index``
and ``IndexedEngine`` call it. It also checks cheap counts: every
occurrence posts exactly once in each of ``dancers``, ``postures``,
``reflexions`` and ``occurrence_shots``, so a truncated posting file is
refused; an edit that keeps those counts is not detected. The file
carries a ``"format"`` version beside ``"fingerprint"`` and ``"files"``;
a file of any other format, or of none, is refused and must be rebuilt.
Posting lists are sorted and duplicate free, and serialization is
canonical, so building the same corpus twice yields byte-identical files.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii as _json_string

from .model import Corpus, corpus_fingerprint, write_strings, write_text_atomic
from .normalize import normalize_body_part, normalize_key


class IndexMismatchError(Exception):
    """The index was built from a different corpus state."""


class IndexFormatError(Exception):
    """The index file is not a valid serialized index set."""


# Version of the index file layout and of the fingerprint it stores;
# format 3 stores the hash of the corpus file's bytes.
INDEX_FORMAT = 3

# Files in which each occurrence posts exactly once.
_ONCE_PER_OCCURRENCE = ("dancers", "postures", "reflexions", "occurrence_shots")


@dataclass(frozen=True)
class IndexSet:
    """All eight inverted files plus the fingerprint of the source corpus."""

    fingerprint: str
    dancers: dict[str, tuple[str, ...]]
    body_parts: dict[str, tuple[str, ...]]
    postures: dict[str, tuple[str, ...]]
    reflexions: dict[str, tuple[str, ...]]
    instruments: dict[str, tuple[str, ...]]
    backgrounds: dict[str, tuple[str, ...]]
    costumes: dict[str, tuple[str, ...]]
    occurrence_shots: dict[str, tuple[str, ...]]

    def shots_of_occurrences(self, occ_ids) -> set[str]:
        """Resolve occurrence IDs to their shots through the shot file."""
        out: set[str] = set()
        for occ_id in occ_ids:
            out.update(self.occurrence_shots.get(occ_id, ()))
        return out

    def check_corpus(self, corpus: Corpus) -> None:
        """Raise IndexMismatchError unless the index was built from this corpus.

        Besides the fingerprint, the occurrence count of each file in
        ``_ONCE_PER_OCCURRENCE`` must be the corpus's, which catches a
        truncated posting file at the cost of one pass over the postings.
        """
        if self.fingerprint != corpus_fingerprint(corpus):
            raise IndexMismatchError(
                "index fingerprint does not match the corpus; rebuild the index"
            )
        occurrences = sum(len(shot.occurrences) for shot in corpus.shots.values())
        for name in _ONCE_PER_OCCURRENCE:
            posted = sum(map(len, getattr(self, name).values()))
            if posted != occurrences:
                raise IndexMismatchError(
                    f"index files.{name} posts {posted} occurrence(s), the corpus "
                    f"has {occurrences}; rebuild the index"
                )


_POSTING_FILES = tuple(f.name for f in fields(IndexSet) if f.name != "fingerprint")


def build_index(corpus: Corpus) -> IndexSet:
    """Scan the corpus once and build all eight files."""
    tables: dict[str, dict[str, set[str]]] = {name: {} for name in _POSTING_FILES}

    def post(name: str, key: str, value: str) -> None:
        tables[name].setdefault(key, set()).add(value)

    for shot in corpus.shots.values():
        for occ in shot.occurrences:
            post("dancers", normalize_key(corpus.dancers[occ.dancer_id].name), occ.occ_id)
            post("postures", normalize_key(occ.posture), occ.occ_id)
            post("reflexions", normalize_key(occ.reflexion), occ.occ_id)
            if occ.instrument_id is not None:
                post(
                    "instruments",
                    normalize_key(corpus.instruments[occ.instrument_id].name),
                    occ.occ_id,
                )
            for part in corpus.step_defs[occ.step_def_id].body_parts:
                post("body_parts", normalize_body_part(part), occ.occ_id)
            post("occurrence_shots", occ.occ_id, shot.id)

    for scene in corpus.scenes.values():
        post("backgrounds", normalize_key(corpus.backgrounds[scene.background_id].name), scene.id)
        for _dancer_id, costume_ids in scene.costume_map:
            for cid in costume_ids:
                post("costumes", normalize_key(corpus.costumes[cid].name), scene.id)

    return IndexSet(
        fingerprint=corpus_fingerprint(corpus),
        **{
            name: {key: tuple(sorted(values)) for key, values in table.items()}
            for name, table in tables.items()
        },
    )


def _write_postings(table: dict[str, tuple[str, ...]]) -> str:
    """One posting file, as the object it is inside "files"."""
    if not table:
        return "{}"
    nl = "\n      "
    entries = [
        f"{nl}{_json_string(key)}: {write_strings(table[key], nl)}" for key in sorted(table)
    ]
    return "{" + ",".join(entries) + "\n    }"


def index_chunks(index: IndexSet) -> Iterator[str]:
    """The text of the index file, one posting file to a chunk.

    The text is that of ``json.dumps(document, indent=2, sort_keys=True)``,
    written without the pure-Python indent encoder; the chunks join to
    ``dumps_index``.
    """
    head = '{\n  "files": {'
    for name in sorted(_POSTING_FILES):
        yield f"{head}\n    {_json_string(name)}: {_write_postings(getattr(index, name))}"
        head = ","
    yield (
        f'\n  }},\n  "fingerprint": {_json_string(index.fingerprint)},'
        f'\n  "format": {INDEX_FORMAT!r}\n}}\n'
    )


def dumps_index(index: IndexSet) -> str:
    return "".join(index_chunks(index))


def save_index(index: IndexSet, path) -> None:
    write_text_atomic(path, index_chunks(index))


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
    if not isinstance(files, dict) or set(files) != set(_POSTING_FILES):
        raise IndexFormatError(f"'files' must hold exactly {sorted(_POSTING_FILES)}")
    tables: dict[str, dict[str, tuple[str, ...]]] = {}
    for name in _POSTING_FILES:
        table = files[name]
        if not isinstance(table, dict):
            raise IndexFormatError(f"files.{name} must be an object")
        frozen: dict[str, tuple[str, ...]] = {}
        for key, values in table.items():
            if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                raise IndexFormatError(f"files.{name}[{key!r}] must be a string array")
            frozen[key] = tuple(values)
        tables[name] = frozen
    for occ_id, shots in tables["occurrence_shots"].items():
        if len(shots) != 1:
            raise IndexFormatError(
                f"files.occurrence_shots[{occ_id!r}] must hold exactly one shot ID"
            )
    return IndexSet(fingerprint=doc["fingerprint"], **tables)


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
