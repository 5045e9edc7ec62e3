"""The dvcm command: subcommands, output formats, and exit codes."""

import gc
import hashlib
import json
import subprocess
from pathlib import Path

import pytest

from corpus_kit import small_doc
from dvcm.bench import BenchmarkMismatchError
import dvcm.cli
import dvcm.index
import dvcm.model
import dvcm.vocab
from dvcm.cli import main
from dvcm.model import dumps_corpus, save_corpus


@pytest.fixture
def f1_path(tmp_path, f1):
    path = tmp_path / "f1.json"
    save_corpus(f1, path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# Usage errors


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


def test_missing_required_option_is_a_usage_error(capsys, f1_path):
    with pytest.raises(SystemExit) as err:
        main(["index", f1_path])
    assert err.value.code == 1
    assert "-o" in capsys.readouterr().err


def test_bad_option_value_is_a_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["gen", "--shots", "5", "--scene-range", "2", "-o", str(tmp_path / "x")])
    assert err.value.code == 1


# --------------------------------------------------------------------------
# validate


def test_validate_reports_counts_and_song_types(capsys, f1_path):
    code, out, err = run_cli(capsys, "validate", f1_path)
    assert code == 0
    assert (
        "corpus OK: 1 video(s), 1 song(s), 1 compound scene(s), 2 scene(s), 9 shot(s)"
        in out
    )
    assert "cs1: song type 2" in out


def test_validate_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2
    assert "error:" in err


def test_validate_corrupt_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "line 1" in err


def test_validate_corpus_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"videos": "\xff"}')
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert err == "error: byte 12: not UTF-8: invalid start byte\n"


DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("command", ["validate", "query"])
def test_deeply_nested_corpus_exits_2_with_one_line(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON, encoding="utf-8")
    argv = {
        "validate": ["validate", str(path)],
        "query": ["query", str(path), 'find shots where dancer = "Anitha"'],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: $: nested too deeply to decode\n"


def test_validate_lists_every_violation(capsys, tmp_path):
    doc = small_doc()
    doc["dancers"][0]["age"] = -1
    doc["songs"][0]["musician_id"] = "mX"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "[dancer-age] d1" in err
    assert "[dangling-reference] s1" in err
    assert "2 integrity violation(s)" in err


# --------------------------------------------------------------------------
# gen, index, query pipeline


def test_generate_validate_index_query(capsys, tmp_path):
    corpus_path = str(tmp_path / "gen.json")
    index_path = str(tmp_path / "gen.index.json")

    code, out, _ = run_cli(
        capsys, "gen", "--shots", "30", "--dancers", "3", "--seed", "7",
        "-o", corpus_path,
    )
    assert code == 0
    assert "30 shot(s)" in out

    code, out, _ = run_cli(capsys, "validate", corpus_path)
    assert code == 0
    assert "corpus OK" in out

    code, out, _ = run_cli(capsys, "index", corpus_path, "-o", index_path)
    assert code == 0
    assert index_path in out

    code, sequential_out, _ = run_cli(
        capsys, "query", corpus_path, 'find shots where posture = "front"'
    )
    assert code == 0
    code, indexed_out, _ = run_cli(
        capsys, "query", corpus_path, 'find shots where posture = "front"',
        "--index", index_path,
    )
    assert code == 0
    assert indexed_out == sequential_out
    assert sequential_out  # the workload term exists in every generated corpus


def test_gen_and_index_bytes_are_pinned(tmp_path):
    # The corpus digest is that of the file the hand-written corpus codec,
    # which the table-driven one replaced, wrote. The index embeds the
    # corpus fingerprint, so its digest pins the fingerprint too; it is the
    # format 5 file, compact JSON with the catalog and performance tables.
    corpus_path = tmp_path / "g.json"
    index_path = tmp_path / "g.index.json"
    gen_args = ["gen", "--shots", "120", "--dancers", "5", "--seed", "42"]
    assert main(gen_args + ["-o", str(corpus_path)]) == 0
    assert main(["index", str(corpus_path), "-o", str(index_path)]) == 0
    assert hashlib.sha256(corpus_path.read_bytes()).hexdigest() == (
        "d187f5b2b92b5f454d4a4b7e032153ba464c2de7e57e85ee101ffd4a5038848e"
    )
    assert hashlib.sha256(index_path.read_bytes()).hexdigest() == (
        "159c472cbbd5a1b44cb1d028a9865692813ab717aecc4e99946c839bad6e29b5"
    )
    index_doc = json.loads(index_path.read_text(encoding="utf-8"))
    assert index_doc["fingerprint"] == hashlib.sha256(corpus_path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", ["gen", "index"])
def test_failed_write_exits_2_with_one_line(capsys, tmp_path, f1, disk_full, command):
    corpus_path = tmp_path / "f1.json"
    corpus_path.write_text(dumps_corpus(f1), encoding="utf-8")
    output = str(tmp_path / "out.json")
    argv = {
        "gen": ["gen", "--shots", "10", "-o", output],
        "index": ["index", str(corpus_path), "-o", output],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "No space left on device" in err
    assert [p.name for p in tmp_path.iterdir()] == ["f1.json"]


def test_query_lines_and_json_formats(capsys, f1_path):
    text = (
        'find scenes where performs_same(dancer = "Anitha", dancer = "Lisa")'
        ' and spatial(dancer = "Anitha", dancer = "Lisa", relation = "in_front_of")'
    )
    code, out, _ = run_cli(capsys, "query", f1_path, text)
    assert code == 0
    assert out == "sc2\n"

    code, out, _ = run_cli(capsys, "query", f1_path, text, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"granularity": "scene", "ids": ["sc2"]}


def test_query_parse_error(capsys, f1_path):
    code, out, err = run_cli(capsys, "query", f1_path, "find nothing anywhere")
    assert code == 1
    assert err.startswith("query error: line 1, col 6")


@pytest.mark.parametrize("corpus", ["missing", "corrupt"])
def test_query_error_wins_over_a_bad_corpus(capsys, monkeypatch, tmp_path, corpus):
    # the query is parsed before any file is read
    path = tmp_path / "corpus.json"
    if corpus == "corrupt":
        path.write_text("{nope", encoding="utf-8")
    loads = []
    for module, name in (
        (dvcm.model, "load_corpus"),
        (dvcm.vocab, "corpus_file_fingerprint"),
        (dvcm.index, "load_index"),
    ):
        monkeypatch.setattr(module, name, lambda path: loads.append(path))
    code, out, err = run_cli(
        capsys, "query", str(path), "find nothing anywhere", "--index", str(path)
    )
    assert code == 1 and out == "" and loads == []
    assert err.startswith("query error: line 1, col 6") and err.count("\n") == 1


def _long_query(joiner: str) -> str:
    return "find shots where " + joiner.join(['dancer = "Anitha"'] * 3000)


@pytest.mark.parametrize(
    "text, index, col",
    [
        # nested parentheses, which the recursive-descent parser would follow
        ("find shots where " + "(" * 3000 + 'dancer = "Anitha"' + ")" * 3000, False, 271),
        # chains that the indexed and the scan evaluators would recurse over
        (_long_query(" and "), True, 1411),
        (_long_query(" or "), False, 1348),
    ],
    ids=["parentheses", "indexed-and-chain", "scan-or-chain"],
)
def test_query_over_the_token_limit_exits_1_with_one_line(
    capsys, tmp_path, f1_path, text, index, col
):
    argv = ["query", f1_path, text]
    if index:
        index_path = str(tmp_path / "f1.index.json")
        assert main(["index", f1_path, "-o", index_path]) == 0
        argv += ["--index", index_path]
    capsys.readouterr()
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"query error: line 1, col {col}: a query may hold at most 256 tokens\n"


def test_query_unknown_dancer_name(capsys, f1_path):
    code, out, err = run_cli(
        capsys, "query", f1_path,
        'find shots where follows(dancer = "Anitha", dancer = "Ghost")',
    )
    assert code == 1 and out == ""
    assert err == "error: unknown dancer: 'ghost'\n"


@pytest.mark.parametrize("indexed", [False, True], ids=["scan", "index"])
def test_deeply_nested_synonym_table_exits_1_with_one_line(
    capsys, monkeypatch, tmp_path, f1_path, indexed
):
    argv = ["query", f1_path, 'find shots where reflexion = "happy"']
    if indexed:
        index_path = str(tmp_path / "f1.index.json")
        assert main(["index", f1_path, "-o", index_path]) == 0
        capsys.readouterr()
        argv += ["--index", index_path]
    monkeypatch.setenv("DVCM_SYNONYMS", "[" * 5000 + "]" * 5000)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: DVCM_SYNONYMS is nested too deeply to decode\n"
    assert "Traceback" not in err


def test_query_with_stale_index(capsys, tmp_path):
    a_path = str(tmp_path / "a.json")
    b_path = str(tmp_path / "b.json")
    index_path = str(tmp_path / "a.index.json")
    run_cli(capsys, "gen", "--shots", "10", "--seed", "1", "-o", a_path)
    run_cli(capsys, "gen", "--shots", "10", "--seed", "2", "-o", b_path)
    assert main(["index", a_path, "-o", index_path]) == 0

    code, out, err = run_cli(
        capsys, "query", b_path, 'find shots where posture = "front"',
        "--index", index_path,
    )
    assert code == 2
    assert "rebuild the index" in err


def test_index_without_format_exits_2(capsys, tmp_path, f1_path):
    index_path = tmp_path / "f1.index.json"
    assert main(["index", f1_path, "-o", str(index_path)]) == 0
    doc = json.loads(index_path.read_text(encoding="utf-8"))
    del doc["format"]
    index_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "query", f1_path, 'find shots where posture = "front"',
        "--index", str(index_path),
    )
    assert code == 2
    assert err == "error: index format is missing, expected 5; rebuild the index\n"


def test_deeply_nested_index_exits_2_with_one_line(capsys, tmp_path, f1_path):
    index_path = tmp_path / "deep.index.json"
    index_path.write_text(DEEP_JSON, encoding="utf-8")
    code, out, err = run_cli(
        capsys, "query", f1_path, 'find shots where posture = "front"',
        "--index", str(index_path),
    )
    assert code == 2 and out == ""
    assert err == "error: nested too deeply to decode\n"


def test_index_that_is_not_utf8_exits_2(capsys, tmp_path, f1_path):
    index_path = tmp_path / "f1.index.json"
    index_path.write_bytes(b"\xff")
    code, out, err = run_cli(
        capsys, "query", f1_path, 'find shots where posture = "front"',
        "--index", str(index_path),
    )
    assert code == 2
    assert err == "error: byte 0: not UTF-8: invalid start byte\n"


def test_cold_index_and_query_never_serialize_the_corpus(
    capsys, monkeypatch, tmp_path, f1_path
):
    # the fingerprint of a loaded corpus is the hash of the bytes read
    index_path = str(tmp_path / "f1.index.json")
    calls = []

    def counting(name):
        original = getattr(dvcm.model, name)

        def wrapper(corpus):
            calls.append(name)
            return original(corpus)

        return wrapper

    for name in ("dumps_corpus", "corpus_chunks"):
        monkeypatch.setattr(dvcm.model, name, counting(name))
    code, _, _ = run_cli(capsys, "index", f1_path, "-o", index_path)
    assert code == 0 and calls == []

    code, out, _ = run_cli(
        capsys, "query", f1_path, 'find shots where posture = "front"',
        "--index", index_path,
    )
    assert code == 0 and out
    assert calls == []


# One query of each body kind: containment, temporal, spatial and
# spatio-temporal, all with answers on f1.
_ONE_QUERY_OF_EACH_KIND = [
    'find shots where dancer = "Anitha" and posture = "front"',
    'find scenes where follows(dancer = "Anitha", dancer = "Lisa")',
    'find shots where spatial(dancer = "Anitha", dancer = "Lisa", relation = "behind")',
    'find cscenes where performs_same(dancer = "Anitha", dancer = "Lisa")'
    ' and spatial(dancer = "Anitha", dancer = "Lisa", relation = "in_front_of")',
]


@pytest.mark.parametrize("text", _ONE_QUERY_OF_EACH_KIND)
def test_indexed_query_never_parses_the_corpus(capsys, monkeypatch, tmp_path, f1_path, text):
    # the corpus file is only hashed; the index answers every body kind
    index_path = str(tmp_path / "f1.index.json")
    assert main(["index", f1_path, "-o", index_path]) == 0
    capsys.readouterr()
    _, expected, _ = run_cli(capsys, "query", f1_path, text)
    calls = []

    def refusing(name):
        def refuse(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} was called")

        return refuse

    for name in ("load_corpus", "loads_corpus", "parse_corpus_document"):
        monkeypatch.setattr(dvcm.model, name, refusing(name))
    code, out, _ = run_cli(capsys, "query", f1_path, text, "--index", index_path)
    assert code == 0 and out == expected and out
    assert calls == []


def _invalid_corpus() -> bytes:
    doc = small_doc()
    doc["shots"][0]["scene_id"] = "nowhere"
    return json.dumps(doc).encode("utf-8")


@pytest.mark.parametrize(
    "content", [b"\xff", b"{nope", b"[]", _invalid_corpus()],
    ids=["not-utf8", "not-json", "not-a-corpus", "invalid"],
)
def test_indexed_query_reports_a_bad_corpus_as_a_fingerprint_mismatch(
    capsys, tmp_path, f1_path, content
):
    # the index path never parses the corpus: a file dvcm index could not
    # have read cannot match the index's fingerprint
    index_path = str(tmp_path / "f1.index.json")
    assert main(["index", f1_path, "-o", index_path]) == 0
    capsys.readouterr()
    bad_path = tmp_path / "bad.json"
    bad_path.write_bytes(content)
    text = 'find shots where dancer = "Anitha"'
    code, out, err = run_cli(capsys, "query", str(bad_path), text, "--index", index_path)
    assert code == 2 and out == ""
    assert err == "error: index fingerprint does not match the corpus; rebuild the index\n"
    # the scan parses and validates the file, and says what is wrong with it
    code, out, err = run_cli(capsys, "query", str(bad_path), text)
    assert code == 2 and out == "" and "fingerprint" not in err


def test_indexed_query_reports_a_missing_corpus_then_a_bad_index(capsys, tmp_path, f1_path):
    index_path = tmp_path / "f1.index.json"
    index_path.write_text('{"format": 4}', encoding="utf-8")
    text = 'find shots where dancer = "Anitha"'
    missing = str(tmp_path / "missing.json")
    code, _, err = run_cli(capsys, "query", missing, text, "--index", str(index_path))
    assert code == 2 and "missing.json" in err and err.count("\n") == 1
    # a bad index is reported before a corpus that does not match it
    code, _, err = run_cli(capsys, "query", f1_path, text, "--index", str(index_path))
    assert code == 2 and err.startswith("error: expected an object with")


def test_reformatted_corpus_needs_a_new_index(capsys, tmp_path, f1_path):
    # an index is pinned to the exact bytes of its corpus file
    index_path = str(tmp_path / "f1.index.json")
    compact_path = tmp_path / "compact.json"
    assert main(["index", f1_path, "-o", index_path]) == 0
    capsys.readouterr()
    doc = json.loads(Path(f1_path).read_text(encoding="utf-8"))
    compact_path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    text = 'find shots where dancer = "Anitha"'

    code, out, err = run_cli(capsys, "query", str(compact_path), text, "--index", index_path)
    assert code == 2 and out == ""
    assert err == "error: index fingerprint does not match the corpus; rebuild the index\n"

    _, expected, _ = run_cli(capsys, "query", f1_path, text)
    assert main(["index", str(compact_path), "-o", index_path]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "query", str(compact_path), text, "--index", index_path)
    assert code == 0 and out == expected and out


def test_crlf_corpus_loads_and_its_index_answers_like_the_scan(capsys, tmp_path, f1_path):
    crlf_path = tmp_path / "crlf.json"
    index_path = str(tmp_path / "crlf.index.json")
    crlf_path.write_bytes(Path(f1_path).read_bytes().replace(b"\n", b"\r\n"))
    code, out, _ = run_cli(capsys, "validate", str(crlf_path))
    assert code == 0 and out.startswith("corpus OK")
    assert main(["index", str(crlf_path), "-o", index_path]) == 0
    capsys.readouterr()
    for text in (
        'find shots where dancer = "Anitha"',
        'find scenes where performs_same(dancer = "Anitha", dancer = "Lisa")',
    ):
        _, scanned, _ = run_cli(capsys, "query", str(crlf_path), text)
        code, indexed, _ = run_cli(capsys, "query", str(crlf_path), text, "--index", index_path)
        assert code == 0 and indexed == scanned and scanned


def _edited_index_query(capsys, tmp_path, f1_path, edit):
    """Query f1 for Anitha through an index file that ``edit`` changed."""
    index_path = tmp_path / "f1.index.json"
    assert main(["index", f1_path, "-o", str(index_path)]) == 0
    capsys.readouterr()
    doc = json.loads(index_path.read_text(encoding="utf-8"))
    edit(doc)
    index_path.write_text(json.dumps(doc), encoding="utf-8")
    return run_cli(
        capsys, "query", f1_path, 'find shots where dancer = "Anitha"',
        "--index", str(index_path),
    )


@pytest.mark.parametrize("empty_shot_entry", [True, False])
def test_truncated_posting_file_exits_2_with_one_line(
    capsys, tmp_path, f1_path, empty_shot_entry
):
    # The dancer file cut to one occurrence, with or without that
    # occurrence's shot entry emptied: the scan finds six shots for Anitha.
    seen = {}

    def truncate(doc):
        postings = doc["files"]["dancers"]["anitha"]
        seen.update(occurrences=len(doc["files"]["shot_of_occurrence"]), cut=len(postings) - 1)
        doc["files"]["dancers"]["anitha"] = postings[:1]
        if empty_shot_entry:
            doc["files"]["shot_of_occurrence"][postings[0]] = []

    code, out, err = _edited_index_query(capsys, tmp_path, f1_path, truncate)
    assert code == 2 and out == ""
    if empty_shot_entry:
        assert err == (
            "error: files.shot_of_occurrence must hold integer ordinals into files.shots, "
            "from 0 to 8\n"
        )
    else:
        # the count is checked against the index's own occurrence map
        occurrences = seen["occurrences"]
        assert err == (
            f"error: files.dancers must post each of the {occurrences} entries of "
            f"files.shot_of_occurrence once, and posts {occurrences - seen['cut']}; "
            "rebuild the index\n"
        )


# f1 has 12 occurrences, 9 shots and 2 scenes.
_BAD_ORDINALS = [
    ("dancers", True, "files.dancers must hold integer ordinals into "
     "files.shot_of_occurrence, from 0 to 11"),
    ("dancers", 1.0, "files.dancers must hold integer ordinals into "
     "files.shot_of_occurrence, from 0 to 11"),
    ("dancers", -1, "files.dancers must hold integer ordinals into "
     "files.shot_of_occurrence, from 0 to 11"),
    ("dancers", 12, "files.dancers must hold integer ordinals into "
     "files.shot_of_occurrence, from 0 to 11"),
    ("shot_of_occurrence", 9, "files.shot_of_occurrence must hold integer ordinals into "
     "files.shots, from 0 to 8"),
    ("scene_of_shot", True, "files.scene_of_shot must hold integer ordinals into "
     "files.scenes, from 0 to 1"),
    ("backgrounds", 2, "files.backgrounds must hold integer ordinals into "
     "files.scenes, from 0 to 1"),
    ("spatial", -1, "files.spatial must hold integer ordinals into files.shots, from 0 to 8"),
]


@pytest.mark.parametrize("name, bad, message", _BAD_ORDINALS)
def test_bad_ordinal_exits_2_with_one_line(capsys, tmp_path, f1_path, name, bad, message):
    def corrupt(doc):
        table = doc["files"][name]
        if name == "dancers":
            table["anitha"][-1] = bad
        elif name == "backgrounds":
            table["temple"][0] = bad
        elif name == "spatial":
            table["near"]["da2"]["da1"][0] = bad
        else:
            table[0] = bad

    code, out, err = _edited_index_query(capsys, tmp_path, f1_path, corrupt)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_format_3_index_exits_2_with_rebuild(capsys, tmp_path, f1_path):
    code, out, err = _edited_index_query(
        capsys, tmp_path, f1_path, lambda doc: doc.update(format=3)
    )
    assert code == 2 and out == ""
    assert err == "error: index format is 3, expected 5; rebuild the index\n"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("corpus, expected_code", [("f1", 0), ("missing", 2)])
def test_command_runs_with_the_gc_off_and_main_restores_it(
    capsys, monkeypatch, tmp_path, f1_path, enabled, corpus, expected_code
):
    path = {"f1": f1_path, "missing": str(tmp_path / "missing.json")}[corpus]
    seen = []
    original = dvcm.model.load_corpus

    def recording(path):
        seen.append(gc.isenabled())
        return original(path)

    monkeypatch.setattr(dvcm.model, "load_corpus", recording)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        code, _, _ = run_cli(capsys, "validate", path)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert code == expected_code and seen == [False]


def test_gen_infeasible_parameters(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "gen", "--shots", "5", "--dancers", "0", "-o", str(tmp_path / "x.json")
    )
    assert code == 1 and out == ""
    assert err == "error: shots need at least one dancer\n"


@pytest.mark.parametrize("weights", ["nan,1,1,1,1,1", "1,inf,1,1,1,1", "1e308,1e308,1,1,1,1"])
def test_gen_refuses_weights_that_are_not_finite(capsys, tmp_path, weights):
    output = tmp_path / "x.json"
    code, out, err = run_cli(capsys, "gen", "--shots", "50", "--weights", weights,
                             "-o", str(output))
    assert code == 1 and out == "" and not output.exists()
    assert err == "error: song type weights and their sum must be finite\n"


# --------------------------------------------------------------------------
# bench and eval


def test_bench_table_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--sizes", "8,20", "--queries", "2", "--reps", "1"
    )
    assert code == 0
    assert "median_ms" in out
    assert "indexed" in out

    code, out, _ = run_cli(
        capsys, "bench", "--sizes", "8", "--queries", "2", "--reps", "1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert {row["engine"] for row in doc["rows"]} == {"sequential", "indexed"}
    assert "8" in doc["build_ms"]


def test_bench_mismatch_exit_code(capsys, monkeypatch):
    def explode(**kwargs):
        raise BenchmarkMismatchError(10, 'find shots where posture = "x"')

    monkeypatch.setattr("dvcm.bench.run_benchmark", explode)
    code, out, err = run_cli(capsys, "bench", "--sizes", "10")
    assert code == 3
    assert "benchmark aborted" in err


def test_eval_prints_the_frozen_report(capsys):
    code, out, err = run_cli(capsys, "eval")
    assert code == 0
    assert out == (
        "query  retrieved  relevant   recall  precision\n"
        "Q1             1         1   100.00     100.00\n"
        "Q2             2         1   100.00      50.00\n"
        "Q3             2         2   100.00     100.00\n"
        "Q4             9         9   100.00     100.00\n"
        "Q5             3         2   100.00      66.66\n"
        "\n"
        "mean recall    100.00\n"
        "mean precision 83.33\n"
    )


def test_eval_rejects_unknown_fixture(capsys):
    with pytest.raises(SystemExit) as err:
        main(["eval", "--fixture", "f9"])
    assert err.value.code == 1


# --------------------------------------------------------------------------
# Console entry point


def test_console_script_help_smoke():
    result = subprocess.run(["dvcm", "--help"], capture_output=True, text=True)
    assert result.returncode == 0
    assert "validate" in result.stdout
