"""The dvcm command: subcommands, output formats, and exit codes."""

import hashlib
import json
import subprocess

import pytest

from corpus_kit import small_doc
from dvcm.bench import BenchmarkMismatchError
import dvcm.model
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
    # Digests of the files these two commands wrote with the hand-written
    # corpus codec that the table-driven one replaced. The index embeds the
    # corpus fingerprint, so its digest pins the fingerprint too.
    corpus_path = tmp_path / "g.json"
    index_path = tmp_path / "g.index.json"
    gen_args = ["gen", "--shots", "120", "--dancers", "5", "--seed", "42"]
    assert main(gen_args + ["-o", str(corpus_path)]) == 0
    assert main(["index", str(corpus_path), "-o", str(index_path)]) == 0
    assert hashlib.sha256(corpus_path.read_bytes()).hexdigest() == (
        "d187f5b2b92b5f454d4a4b7e032153ba464c2de7e57e85ee101ffd4a5038848e"
    )
    assert hashlib.sha256(index_path.read_bytes()).hexdigest() == (
        "770115361c63d69237ab93d697786960877870ba4711c63fdfc22cb201c69221"
    )


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


def test_query_unknown_dancer_name(capsys, f1_path):
    code, out, err = run_cli(
        capsys, "query", f1_path,
        'find shots where follows(dancer = "Anitha", dancer = "Ghost")',
    )
    assert code == 1
    assert "error:" in err and "ghost" in err


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
    assert err == "error: index format is missing, expected 2; rebuild the index\n"


def test_index_that_is_not_utf8_exits_2(capsys, tmp_path, f1_path):
    index_path = tmp_path / "f1.index.json"
    index_path.write_bytes(b"\xff")
    code, out, err = run_cli(
        capsys, "query", f1_path, 'find shots where posture = "front"',
        "--index", str(index_path),
    )
    assert code == 2
    assert err == "error: byte 0: not UTF-8: invalid start byte\n"


def test_cold_index_and_query_serialize_the_corpus_once(capsys, monkeypatch, tmp_path, f1_path):
    index_path = str(tmp_path / "f1.index.json")
    calls = []
    original = dvcm.model.corpus_document

    def counting(corpus):
        calls.append(corpus)
        return original(corpus)

    monkeypatch.setattr(dvcm.model, "corpus_document", counting)
    code, _, _ = run_cli(capsys, "index", f1_path, "-o", index_path)
    assert code == 0 and len(calls) == 1

    calls.clear()
    code, out, _ = run_cli(
        capsys, "query", f1_path, 'find shots where posture = "front"',
        "--index", index_path,
    )
    assert code == 0 and out
    assert len(calls) == 1


def test_gen_infeasible_parameters(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "gen", "--shots", "5", "--dancers", "0", "-o", str(tmp_path / "x.json")
    )
    assert code == 1
    assert "error:" in err


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

    monkeypatch.setattr("dvcm.cli.run_benchmark", explode)
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
