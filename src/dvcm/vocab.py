"""The names every dvcm command shares, at the cost of a small import.

This module holds the fixed annotation vocabulary that queries are checked
against, the result granularities, the errors that ``dvcm.cli`` maps to
exit codes and the fingerprint of a corpus file. It defines no dataclasses
and generates no code, so a command that answers from an index, such as
``dvcm query --index``, loads these names without the corpus model
(``model``) and its codec. ``model``, ``qlang``, ``index`` and ``bench``
re-export what they define here.
"""

from __future__ import annotations

import enum
import hashlib
from collections.abc import Iterable
from functools import partial
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .model import Violation

STEP_CLASSES = ("PY", "AD", "ASHA", "SHA", "CS")

SONG_COMPONENTS = ("PA", "AP", "SA", "CH")

SPATIAL_RELATIONS = frozenset(
    {"left_of", "right_of", "in_front_of", "behind", "near", "meets"}
)

# Corpora shipped with the package, under ``fixtures/``.
FIXTURE_NAMES = ("f1",)


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


class IntegrityError(Exception):
    """Raised by load_corpus when integrity rules fail; carries every violation."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"{len(violations)} integrity violation(s): {lines}")


class IndexMismatchError(Exception):
    """The index was built from a different corpus state."""


class IndexFormatError(Exception):
    """The index file is not a valid serialized index set."""


class QueryParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class BenchmarkMismatchError(Exception):
    """The engines disagreed on a workload query."""

    def __init__(self, size: int, query_text: str):
        self.size = size
        self.query_text = query_text
        super().__init__(
            f"engine mismatch on {size}-shot corpus for query: {query_text}"
        )


def _sha256(blocks: Iterable[bytes]) -> str:
    """The SHA-256 of the concatenated blocks: a corpus fingerprint."""
    digest = hashlib.sha256()
    for block in blocks:
        digest.update(block)
    return digest.hexdigest()


def corpus_file_fingerprint(path) -> str:
    """The fingerprint of a corpus file, read in blocks and never parsed.

    An index is built only from a file that loads and validates, so a file
    whose fingerprint matches an index needs no parsing or validation to be
    answered from it.
    """
    with open(path, "rb") as fh:
        return _sha256(iter(partial(fh.read, 1 << 20), b""))
