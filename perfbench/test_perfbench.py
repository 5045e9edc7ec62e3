"""Tests of the benchmark itself: the query generator, the tail rule and the exit without sources.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import querygen
import run

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def dvcm():
    return run.import_dvcm()


@pytest.fixture(scope="module")
def corpus(dvcm):
    params = dvcm.generator.GenParams(n_shots=400, n_dancers=8, n_step_defs=10, seed=3)
    return dvcm.generator.generate_corpus(params)


@pytest.fixture(scope="module")
def vocab(dvcm, corpus):
    return querygen.Vocabulary(dvcm.model.corpus_document(corpus))


def _take(vocab, seed=7, stream="warm", n=querygen.FULL_COVERAGE):
    return querygen.QueryGenerator(vocab, seed, stream).take(n)


def test_generator_covers_the_whole_language(dvcm, vocab):
    queries = _take(vocab)
    temporal, spatial = set(), set()
    grans = {kind: set() for kind in querygen.KINDS}
    for kind, gran, text in queries:
        query = dvcm.qlang.parse_query(text)
        grans[kind].add(gran)
        body = query.body
        if kind == "temporal":
            constraint = "step" if body.step else "step_class" if body.step_class else "none"
            temporal.add((body.relation, constraint))
        elif kind == "spatial":
            spatial.add((body.relation, body.performing))
        elif kind == "spatiotemporal":
            assert {type(body.first), type(body.second)} == {
                dvcm.qlang.TemporalRel, dvcm.qlang.SpatialRel}
        else:
            assert isinstance(body, (dvcm.qlang.FacetAtom, dvcm.qlang.And, dvcm.qlang.Or))

    assert len(querygen.TEMPORAL_RELATIONS) == 22
    assert set(querygen.TEMPORAL_RELATIONS) == set(dvcm.temporal.DANCER_RELATIONS) | set(
        dvcm.temporal.ALLEN_RELATIONS)
    assert set(querygen.SPATIAL_RELATIONS) == set(dvcm.model.SPATIAL_RELATIONS)
    assert temporal == {(r, c) for r in querygen.TEMPORAL_RELATIONS
                        for c in ("none", "step", "step_class")}
    assert spatial == {(r, p) for r in querygen.SPATIAL_RELATIONS for p in (False, True)}
    assert all(g == set(querygen.GRANULARITIES) for g in grans.values())


def test_generated_queries_name_only_known_dancers_and_steps(dvcm, corpus, vocab):
    engine = dvcm.engine.SequentialScanEngine(corpus)
    no_match = 0
    for _kind, _gran, text in _take(vocab, n=300):
        engine.execute(dvcm.qlang.parse_query(text))  # raises UnknownNameError otherwise
        no_match += text.count(querygen.NO_MATCH_TERM)
    atoms = sum(len(re.findall(r"\b\w+ = ", t)) for k, _g, t in _take(vocab, n=300)
                if k == "containment")
    assert 0 < no_match < atoms / 4


def test_workload_is_deterministic_for_a_seed(vocab):
    assert _take(vocab, seed=11) == _take(vocab, seed=11)
    assert _take(vocab, seed=11) != _take(vocab, seed=12)
    assert _take(vocab, stream="cold") != _take(vocab, stream="warm")


def test_tail_is_p95_of_the_warm_texts():
    n = run.WARM_QUERIES
    tail = next(p for p in run.TAIL_LADDER if n - run._rank(p, n) >= 10)
    assert (tail, n - run._rank(tail, n)) == (95, 13)
    assert run._rank(50, 1) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
