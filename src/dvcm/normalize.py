"""Key normalization and reflexion synonym expansion.

Index keys and query terms go through the same pipeline so that lookups are
insensitive to case and stray whitespace: casefold, trim, collapse runs of
internal whitespace. Body-part terms additionally drop laterality ("left
eye" and "right eye" both index under "eye"), applied when building the
index and again when looking up, so the two sides of a lookup always agree.

Reflexion lookups expand the query term through a synonym table before
probing. The default table has a single group (romantic, joy, happy,
delighted); deployments override it with the DVCM_SYNONYMS environment
variable holding a JSON object that maps a term to its expansion list.
Expansion is one level deep and always includes the term itself.
"""

from __future__ import annotations

import json
import os

_LATERALITY = frozenset({"left", "right"})

_DEFAULT_SYNONYMS: dict[str, tuple[str, ...]] = {}
for _group in [("romantic", "joy", "happy", "delighted")]:
    for _term in _group:
        _DEFAULT_SYNONYMS[_term] = _group

SYNONYMS_ENV_VAR = "DVCM_SYNONYMS"


def normalize_key(text: str) -> str:
    """Canonical form of any index key or query term."""
    return " ".join(text.casefold().split())


def normalize_body_part(text: str) -> str:
    """Canonical form of a body-part term, with laterality removed."""
    words = [w for w in text.casefold().split() if w not in _LATERALITY]
    return " ".join(words)


def load_synonym_table() -> dict[str, tuple[str, ...]]:
    """The active reflexion synonym table, normalized.

    Reads DVCM_SYNONYMS when set; malformed JSON, JSON nested too deeply to
    decode or a non-object document raises ValueError rather than silently
    falling back.
    """
    raw = os.environ.get(SYNONYMS_ENV_VAR)
    if raw is None:
        return dict(_DEFAULT_SYNONYMS)
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{SYNONYMS_ENV_VAR} is not valid JSON: {exc.msg}") from None
    except RecursionError:
        raise ValueError(f"{SYNONYMS_ENV_VAR} is nested too deeply to decode") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{SYNONYMS_ENV_VAR} must be a JSON object")
    table: dict[str, tuple[str, ...]] = {}
    for term, expansion in doc.items():
        if not isinstance(expansion, list) or not all(
            isinstance(t, str) for t in expansion
        ):
            raise ValueError(
                f"{SYNONYMS_ENV_VAR}[{term!r}] must be an array of strings"
            )
        table[normalize_key(term)] = tuple(normalize_key(t) for t in expansion)
    return table


def expand_reflexion(
    term: str, table: dict[str, tuple[str, ...]] | None = None
) -> frozenset[str]:
    """All reflexion keys a query term stands for: the term plus synonyms."""
    key = normalize_key(term)
    if table is None:
        table = load_synonym_table()
    return frozenset({key, *table.get(key, ())})
