"""The corpus loader decodes one catalog entry at a time.

Its reference is the loader it replaced, kept here: ``json.loads`` of the
whole text, then ``parse_corpus_document``. A seeded sweep of corrupted
files holds the two to the same outcome, and hand-made files hold the
command line to one line per error.
"""

import gc
import json
import random
import re
import tracemalloc
from collections import Counter

import pytest

from dvcm.cli import main
from dvcm.generator import GenParams, generate_corpus
from dvcm.model import (
    Corpus,
    CorpusFormatError,
    IntegrityError,
    dumps_corpus,
    loads_corpus,
    parse_corpus_document,
)


def reference_loads(text: str) -> Corpus:
    """The whole document decoded first, then parsed."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"line {exc.lineno}, col {exc.colno}", exc.msg) from None
    except RecursionError:
        raise CorpusFormatError("$", "nested too deeply to decode") from None
    return parse_corpus_document(doc)


def outcome(load, text: str):
    """The corpus ``load`` returns, or the data error it raises."""
    try:
        return load(text)
    except (CorpusFormatError, IntegrityError) as exc:
        return exc


def is_syntax_error(result) -> bool:
    return isinstance(result, CorpusFormatError) and result.location.startswith("line ")


# The two documented differences from the reference, by name.


def structural_error_before_a_later_syntax_error(streamed, reference) -> bool:
    return (
        isinstance(streamed, CorpusFormatError)
        and not is_syntax_error(streamed)
        and is_syntax_error(reference)
    )


def repeated_top_level_key(streamed) -> bool:
    # json.loads keeps the last value of a repeated key without a word
    return (
        isinstance(streamed, CorpusFormatError)
        and streamed.location == "$"
        and streamed.message.startswith("duplicate top-level key ")
    )


# Bytes a substitution writes: JSON's structural characters, the starts of
# its literals, digits, an escape and one byte that is never UTF-8.
_SUBSTITUTES = b'{}[],:" \n0123456789-.aeflnrstu\\\xff'


def mutations(data: bytes):
    """500 seeded corruptions of ``data``: 125 of each kind, interleaved."""
    rng = random.Random(19)
    n = len(data)
    for _ in range(125):
        i = rng.randrange(n)
        yield "substitute", data[:i] + bytes([rng.choice(_SUBSTITUTES)]) + data[i + 1:]
        i = rng.randrange(n)
        yield "delete", data[:i] + data[i + rng.randint(1, 64):]
        yield "truncate", data[:rng.randrange(n)]
        i, j = sorted(rng.sample(range(n), 2))
        yield "swap", data[:i] + data[j:j + 1] + data[i + 1:j] + data[i:i + 1] + data[j + 1:]


def assert_validate_reports(err: str, result) -> None:
    """``dvcm validate`` prints a format error as one line and an integrity
    error as one line per violation and a count."""
    if isinstance(result, IntegrityError):
        count = len(result.violations)
        assert err.splitlines() == [*map(str, result.violations), f"{count} integrity violation(s)"]
    else:
        assert err == f"error: {result}\n"


def test_corrupted_files_load_as_the_whole_document_decode_does(capsys, tmp_path, f1):
    data = dumps_corpus(f1).encode("utf-8")
    path = tmp_path / "corrupted.json"
    seen = Counter()
    for kind, mutated in mutations(data):
        path.write_bytes(mutated)
        code = main(["validate", str(path)])
        err = capsys.readouterr().err
        case = f"{kind} case {seen[kind]}"
        seen[kind] += 1
        try:
            text = mutated.decode("utf-8")
        except UnicodeDecodeError as exc:
            assert (code, err) == (2, f"error: byte {exc.start}: not UTF-8: {exc.reason}\n"), case
            seen["not UTF-8"] += 1
            continue
        streamed, reference = outcome(loads_corpus, text), outcome(reference_loads, text)
        if isinstance(streamed, Corpus):
            assert code == 0 and err == "", case
            assert streamed == reference, case
            seen["loads"] += 1
            continue
        assert code == 2, case
        assert_validate_reports(err, streamed)
        if structural_error_before_a_later_syntax_error(streamed, reference):
            seen["structural error first"] += 1
        elif repeated_top_level_key(streamed):
            seen["repeated top-level key"] += 1
        else:
            assert type(streamed) is type(reference), (case, streamed, reference)
            assert str(streamed) == str(reference), case
            seen[type(streamed).__name__] += 1
    assert sum(seen[kind] for kind in ("substitute", "delete", "truncate", "swap")) == 500
    # the sweep reaches every outcome but the repeated key, which a single
    # edit of these kinds cannot make; a hand-made test covers that one
    for result in ("loads", "CorpusFormatError", "IntegrityError", "not UTF-8",
                   "structural error first"):
        assert seen[result] > 0, (result, seen)


def test_a_structural_error_is_reported_before_a_later_syntax_error(f1):
    text = dumps_corpus(f1)
    # the first catalog in the file is "backgrounds"; the text is cut off
    text = text.replace('"id": "bg1"', '"id": 1', 1)[:-40]
    streamed, reference = outcome(loads_corpus, text), outcome(reference_loads, text)
    assert str(streamed) == "backgrounds[0].id: expected string, got int"
    assert str(reference) == "line 484, col 7: Unterminated string starting at"
    assert structural_error_before_a_later_syntax_error(streamed, reference)


def test_a_repeated_top_level_key_is_refused(f1):
    text = dumps_corpus(f1)
    start = text.index('  "videos": [')
    videos = text[start:text.rindex("]") + 1]
    text = text[:start] + videos + ",\n" + videos + "\n}\n"
    # json.loads keeps the last of the two, here a copy of the first
    streamed, reference = outcome(loads_corpus, text), outcome(reference_loads, text)
    assert reference == f1
    assert str(streamed) == "$: duplicate top-level key 'videos'"
    assert repeated_top_level_key(streamed)


# Edits of the text between catalog entries, where the loader walks the
# file itself: (old, new, replace the first or the last occurrence).
BETWEEN_ENTRIES = {
    "trailing comma in a catalog": ("}\n  ],", "},\n  ],", "first"),
    "entries without a comma": ("},\n    {", "}\n    {", "first"),
    "catalogs without a comma": ("],\n  \"", "]\n  \"", "first"),
    "trailing comma after the last catalog": ("]\n}", "],\n}", "last"),
    "key without a colon": ('"backgrounds": [', '"backgrounds" [', "first"),
    "key that is not a string": ('"backgrounds": [', "backgrounds: [", "first"),
    "unterminated key": ('"backgrounds": [', '"backgrounds: [', "first"),
    "bad escape in a key": ('"backgrounds": [', '"back\\grounds": [', "first"),
    "closing bracket missing": ("]\n}", "\n}", "last"),
    "array closed twice": ("}\n  ],", "}\n  ]],", "first"),
    "object closed early": ("}\n  ],", "}\n  }}", "first"),
    "value missing": ('"backgrounds": [', '"backgrounds": ,', "first"),
}


@pytest.mark.parametrize("name", BETWEEN_ENTRIES)
def test_syntax_error_between_entries_is_the_one_json_loads_reports(f1, name):
    old, new, which = BETWEEN_ENTRIES[name]
    text = dumps_corpus(f1)
    i = text.index(old) if which == "first" else text.rindex(old)
    text = text[:i] + new + text[i + len(old):]
    streamed, reference = outcome(loads_corpus, text), outcome(reference_loads, text)
    assert is_syntax_error(reference)
    assert str(streamed) == str(reference)


def json_error(text: str) -> str:
    """The line dvcm prints for the syntax error json.loads finds in text."""
    with pytest.raises(json.JSONDecodeError) as err:
        json.loads(text)
    return f"error: line {err.value.lineno}, col {err.value.colno}: {err.value.msg}\n"


def repeat_shots(text: str) -> str:
    return text.replace('\n  "songs": [', '\n  "shots": [],\n  "songs": [', 1)


def shots_as_object(text: str) -> str:
    return re.sub(r'"shots": \[.*?\n  \]', '"shots": {}', text, count=1, flags=re.S)


def nest_deep_in_one_shot(text: str) -> str:
    deep = "[" * 100_000 + "]" * 100_000
    return text.replace('"description": "opening duet"', f'"description": {deep}', 1)


# name -> (corpus text from f1's text, the line dvcm prints; None: the line
# of the syntax error json.loads finds)
MALFORMED = {
    "empty": (lambda text: "", "error: line 1, col 1: Expecting value\n"),
    "whitespace only": (lambda text: " \n\t\r\n ", "error: line 3, col 2: Expecting value\n"),
    "UTF-8 BOM": (
        lambda text: "\ufeff" + text,
        "error: line 1, col 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n",
    ),
    "shots is an object": (shots_as_object, "error: shots: expected array, got dict\n"),
    "data after the closing brace": (lambda text: text + "{}\n", None),
    "cut off mid-entry": (lambda text: text[:text.index('"shots": [') + 300], None),
    "repeated top-level key": (repeat_shots, "error: $: duplicate top-level key 'shots'\n"),
    "nested too deep in one shot": (
        nest_deep_in_one_shot,
        "error: $: nested too deeply to decode\n",
    ),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_corpus_file_exits_2_with_one_line(capsys, tmp_path, f1, name):
    edit, expected = MALFORMED[name]
    text = edit(dumps_corpus(f1))
    path = tmp_path / "malformed.json"
    path.write_text(text, encoding="utf-8", newline="")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", expected or json_error(text))


def test_corpus_path_that_is_a_directory_exits_2_with_one_line(capsys, tmp_path):
    assert main(["validate", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_loading_never_holds_the_whole_decoded_document():
    text = dumps_corpus(generate_corpus(GenParams(n_shots=1000, n_dancers=20, n_step_defs=30)))
    gc_was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        doc = json.loads(text)
        document = tracemalloc.get_traced_memory()[0]
        del doc
        tracemalloc.reset_peak()
        corpus = loads_corpus(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if gc_was_enabled:
            gc.enable()
    assert len(corpus.shots) == 1000
    # decoding the whole document first reads 0.65 here, one entry at a time 0.07
    assert peak - retained < 0.2 * document
