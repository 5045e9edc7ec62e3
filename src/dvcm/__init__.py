"""Annotation store and retrieval engine for dance videos.

The package models annotated footage as video -> compound scene -> scene ->
shot, classifies song structures, indexes annotations into inverted files,
and answers containment, temporal, spatial and spatiotemporal queries with
interchangeable sequential and indexed engines. A harness generates seeded
synthetic corpora, scores retrieval effectiveness, and benchmarks the two
engines against each other.

The public names below are imported from their modules on first access
(PEP 562), so ``import dvcm`` loads no submodule and each command loads
only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module that defines it.
_MODULE_OF = {
    "ALLEN_RELATIONS": "temporal",
    "Corpus": "model",
    "CorpusFormatError": "vocab",
    "DANCER_RELATIONS": "temporal",
    "EvalReport": "evaluation",
    "EvalRow": "evaluation",
    "GenParams": "generator",
    "Granularity": "vocab",
    "IndexMismatchError": "vocab",
    "IndexSet": "index",
    "IndexedEngine": "engine",
    "InfeasibleParamsError": "generator",
    "IntegrityError": "vocab",
    "Query": "qlang",
    "QueryParseError": "vocab",
    "SequentialScanEngine": "engine",
    "UnknownIdError": "model",
    "UnknownNameError": "engine",
    "Violation": "model",
    "allen_relation": "temporal",
    "build_index": "index",
    "classify_song_type": "model",
    "corpus_fingerprint": "model",
    "format_query": "qlang",
    "generate_corpus": "generator",
    "lift_granularity": "model",
    "load_corpus": "model",
    "load_fixture": "evaluation",
    "load_index": "index",
    "parse_query": "qlang",
    "precision_recall": "evaluation",
    "run_fixture_eval": "evaluation",
    "save_corpus": "model",
    "save_index": "index",
    "validate_corpus": "model",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
