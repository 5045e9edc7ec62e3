"""Each command imports only the modules it runs; the package namespace is lazy."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dvcm
from dvcm.evaluation import load_fixture
from dvcm.index import build_index, save_index
from dvcm.model import save_corpus

SRC = str(Path(dvcm.__file__).resolve().parents[1])

# Runs ``python -m dvcm.cli`` in this process once per argument list given
# in argv[1], and after each run prints one JSON line: the exit code, the
# lines the command printed and every module loaded so far.
_DRIVER = """
import contextlib, io, json, runpy, sys
for argv in json.loads(sys.argv[1]):
    sys.argv = ["dvcm", *argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_module("dvcm.cli", run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    print(json.dumps({"code": code, "out": out.getvalue().splitlines(),
                      "modules": sorted(sys.modules)}))
"""

# One body of each kind, all with answers on f1.
_BODIES = [
    'dancer = "Anitha" and posture = "front"',
    'follows(dancer = "Anitha", dancer = "Lisa")',
    'spatial(dancer = "Anitha", dancer = "Lisa", relation = "behind")',
    'performs_same(dancer = "Anitha", dancer = "Lisa")'
    ' and spatial(dancer = "Anitha", dancer = "Lisa", relation = "in_front_of")',
]
_QUERIES = [f"find {gran} where {body}" for body in _BODIES for gran in ("shots", "scenes", "cscenes")]

_NEVER_ON_A_QUERY = {"dvcm.bench", "dvcm.generator", "dvcm.evaluation", "dvcm.song_types"}


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("DVCM_SYNONYMS", None)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )


def _run_commands(*argvs: list[str]) -> list[dict]:
    result = _python("-c", _DRIVER, json.dumps(argvs))
    assert result.returncode == 0, result.stderr
    runs = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(runs) == len(argvs)
    return runs


def _dvcm_modules(run: dict) -> set[str]:
    return {name for name in run["modules"] if name.split(".")[0] == "dvcm"}


@pytest.fixture(scope="module")
def f1_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("footprint")
    corpus_path, index_path = root / "f1.json", root / "f1.index.json"
    corpus = load_fixture("f1")
    save_corpus(corpus, corpus_path)
    save_index(build_index(corpus), index_path)
    return str(corpus_path), str(index_path)


def test_indexed_query_loads_neither_the_corpus_model_nor_the_harness(f1_files):
    corpus_path, index_path = f1_files
    runs = _run_commands(*(["query", corpus_path, text, "--index", index_path] for text in _QUERIES))
    for text, run in zip(_QUERIES, runs):
        assert run["code"] == 0 and run["out"], text
        assert not _dvcm_modules(run) & (_NEVER_ON_A_QUERY | {"dvcm.model"}), text


def test_scan_query_loads_no_harness_module(f1_files):
    corpus_path, _ = f1_files
    texts = [f"find shots where {body}" for body in _BODIES]
    runs = _run_commands(*(["query", corpus_path, text] for text in texts))
    for text, run in zip(texts, runs):
        assert run["code"] == 0 and run["out"], text
        assert "dvcm.model" in _dvcm_modules(run)
        assert not _dvcm_modules(run) & _NEVER_ON_A_QUERY, text


def test_gen_loads_no_query_or_harness_module(tmp_path):
    (run,) = _run_commands(["gen", "--shots", "40", "-o", str(tmp_path / "c.json")])
    assert run["code"] == 0 and (tmp_path / "c.json").is_file()
    absent = {"dvcm.engine", "dvcm.qlang", "dvcm.bench", "dvcm.evaluation"}
    assert not _dvcm_modules(run) & absent


# --------------------------------------------------------------------------
# The lazy package namespace


def test_import_dvcm_loads_no_submodule():
    result = _python("-c", "import sys, dvcm; print(*sorted(sys.modules), sep='\\n')")
    assert result.returncode == 0, result.stderr
    loaded = [name for name in result.stdout.splitlines() if name.split(".")[0] == "dvcm"]
    assert loaded == ["dvcm"]


def test_every_public_name_is_its_defining_modules_object():
    assert len(set(dvcm.__all__)) == len(dvcm.__all__)
    for name in dvcm.__all__:
        value = getattr(dvcm, name)
        # the two relation-name tuples carry no __module__
        home = getattr(value, "__module__", "dvcm.temporal")
        assert home.startswith("dvcm."), name
        assert getattr(importlib.import_module(home), name) is value, name


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from dvcm import *", namespace)
    assert set(dvcm.__all__) <= set(namespace)
    assert set(dvcm.__all__) <= set(dir(dvcm))
    assert "__version__" in dir(dvcm)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing_here'"):
        dvcm.nothing_here
    assert not hasattr(dvcm, "load_corpora")
