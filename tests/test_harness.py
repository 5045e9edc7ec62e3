"""Scoring, report formatting, corpus generation, and the benchmark driver."""

import pytest

from dvcm.bench import (
    catalog_size_for,
    collect_vocabulary,
    format_bench_report,
    random_containment_query,
    run_benchmark,
)
from dvcm.evaluation import (
    EvalReport,
    EvalRow,
    format_eval_report,
    load_fixture,
    precision_recall,
    run_fixture_eval,
)
from dvcm.generator import CounterRng, GenParams, InfeasibleParamsError, generate_corpus
from dvcm.model import validate_corpus
from dvcm.qlang import format_query, parse_query
from dvcm.song_types import song_type_of_compound_scene


# --------------------------------------------------------------------------
# Scoring


def test_precision_recall_basics():
    assert precision_recall({"a", "b"}, {"a"}) == (50.0, 100.0)
    assert precision_recall({"a"}, {"a", "b"}) == (100.0, 50.0)
    assert precision_recall({"x"}, {"a"}) == (0.0, 0.0)
    assert precision_recall(set(), {"a"}) == (0.0, 0.0)
    precision, recall = precision_recall({"a", "b", "c"}, {"a", "b"})
    assert precision == pytest.approx(200.0 / 3.0)
    assert recall == 100.0


def test_precision_recall_requires_relevant_items():
    with pytest.raises(ValueError, match="relevant"):
        precision_recall({"a"}, set())


def make_row(label, retrieved, relevant, precision, recall):
    return EvalRow(
        label=label,
        query_text="q",
        retrieved_count=retrieved,
        relevant_count=relevant,
        precision=precision,
        recall=recall,
    )


def test_report_means():
    report = EvalReport(
        rows=(make_row("A", 2, 1, 50.0, 100.0), make_row("B", 1, 1, 100.0, 100.0))
    )
    assert report.mean_precision == 75.0
    assert report.mean_recall == 100.0


def test_fixture_eval_rows():
    report = run_fixture_eval()
    by_label = {row.label: row for row in report.rows}
    assert [row.label for row in report.rows] == ["Q1", "Q2", "Q3", "Q4", "Q5"]
    assert (by_label["Q1"].retrieved_count, by_label["Q1"].relevant_count) == (1, 1)
    assert (by_label["Q2"].retrieved_count, by_label["Q2"].relevant_count) == (2, 1)
    assert (by_label["Q3"].retrieved_count, by_label["Q3"].relevant_count) == (2, 2)
    assert (by_label["Q4"].retrieved_count, by_label["Q4"].relevant_count) == (9, 9)
    assert (by_label["Q5"].retrieved_count, by_label["Q5"].relevant_count) == (3, 2)
    assert by_label["Q2"].precision == 50.0
    assert by_label["Q5"].precision == pytest.approx(200.0 / 3.0)
    assert all(row.recall == 100.0 for row in report.rows)
    assert report.mean_recall == 100.0
    assert report.mean_precision == pytest.approx(250.0 / 3.0)


def test_fixture_report_text_is_frozen():
    expected = "\n".join(
        [
            "query  retrieved  relevant   recall  precision",
            "Q1             1         1   100.00     100.00",
            "Q2             2         1   100.00      50.00",
            "Q3             2         2   100.00     100.00",
            "Q4             9         9   100.00     100.00",
            "Q5             3         2   100.00      66.66",
            "",
            "mean recall    100.00",
            "mean precision 83.33",
        ]
    )
    assert format_eval_report(run_fixture_eval()) == expected


def test_empty_result_rows_are_flagged():
    report = EvalReport(rows=(make_row("Q9", 0, 3, 0.0, 0.0),))
    line = format_eval_report(report).splitlines()[1]
    assert line.endswith("  [no results]")


def test_load_fixture_unknown_name():
    with pytest.raises(FileNotFoundError):
        load_fixture("nope")


def test_fixture_is_valid():
    assert validate_corpus(load_fixture("f1")) == []


# --------------------------------------------------------------------------
# Generator


def test_generation_is_deterministic_and_seed_sensitive():
    params = GenParams(n_shots=60, n_dancers=4, seed=11)
    first = generate_corpus(params)
    second = generate_corpus(params)
    assert first == second
    other = generate_corpus(GenParams(n_shots=60, n_dancers=4, seed=12))
    assert other != first


@pytest.mark.parametrize("n_shots", [1, 7, 24, 60])
@pytest.mark.parametrize("n_dancers", [1, 3])
def test_generated_corpora_are_valid_with_exact_size(n_shots, n_dancers):
    corpus = generate_corpus(GenParams(n_shots=n_shots, n_dancers=n_dancers, seed=4))
    assert len(corpus.shots) == n_shots
    assert len(corpus.dancers) == n_dancers
    assert validate_corpus(corpus) == []


def test_song_type_weights_steer_structure():
    only_type_3 = generate_corpus(
        GenParams(n_shots=40, n_dancers=3, seed=8, song_type_weights=(0, 0, 1, 0, 0, 0))
    )
    types = {
        song_type_of_compound_scene(only_type_3, cs_id)
        for cs_id in only_type_3.compound_scenes
    }
    assert types == {3}

    only_type_6 = generate_corpus(
        GenParams(n_shots=40, n_dancers=3, seed=8, song_type_weights=(0, 0, 0, 0, 0, 1))
    )
    types = {
        song_type_of_compound_scene(only_type_6, cs_id)
        for cs_id in only_type_6.compound_scenes
    }
    # a type-6 word may be truncated to its bare "SA" prefix at the end of
    # the shot budget, which classifies as type 3
    assert types <= {3, 6}
    assert 6 in types


def test_empty_corpus():
    corpus = generate_corpus(GenParams(n_shots=0, n_dancers=0, seed=0))
    assert corpus.shots == {}
    assert validate_corpus(corpus) == []


@pytest.mark.parametrize(
    "params",
    [
        GenParams(n_shots=-1, n_dancers=1),
        GenParams(n_shots=5, n_dancers=0),
        GenParams(n_shots=5, n_dancers=2, n_step_defs=0),
        GenParams(n_shots=5, n_dancers=2, shots_per_scene_range=(0, 5)),
        GenParams(n_shots=5, n_dancers=2, shots_per_scene_range=(5, 2)),
        GenParams(n_shots=5, n_dancers=2, song_type_weights=(1, 1, 1)),
        GenParams(n_shots=5, n_dancers=2, song_type_weights=(1, 1, 1, 1, 1, -1)),
        GenParams(n_shots=5, n_dancers=2, song_type_weights=(0, 0, 0, 0, 0, 0)),
    ],
)
def test_infeasible_parameters_are_rejected(params):
    with pytest.raises(InfeasibleParamsError):
        generate_corpus(params)


# --------------------------------------------------------------------------
# Deterministic random stream


def test_counter_rng_is_deterministic():
    a = CounterRng(3, "x")
    b = CounterRng(3, "x")
    assert [a.randint(0, 9) for _ in range(20)] == [b.randint(0, 9) for _ in range(20)]
    c = CounterRng(3, "y")
    assert [a.randint(0, 9) for _ in range(20)] != [c.randint(0, 9) for _ in range(20)]


def test_counter_rng_bounds():
    rng = CounterRng(0)
    draws = [rng.randint(2, 5) for _ in range(200)]
    assert set(draws) == {2, 3, 4, 5}
    assert rng.randint(5, 5) == 5
    with pytest.raises(ValueError):
        rng.randint(5, 4)
    with pytest.raises(ValueError):
        rng.choice([])
    assert rng.choice(["only"]) == "only"
    assert isinstance(rng.chance(50), bool)
    assert rng.chance(100) is True
    assert rng.chance(0) is False


def test_weighted_index_respects_zero_weights():
    rng = CounterRng(1)
    draws = {rng.weighted_index((0, 1, 0, 2, 0, 0)) for _ in range(100)}
    assert draws == {1, 3}


# --------------------------------------------------------------------------
# Benchmark driver


def test_catalog_size_scales_with_corpus():
    assert catalog_size_for(10) == 6
    assert catalog_size_for(100) == 10
    assert catalog_size_for(10000) == 100


def test_vocabulary_includes_synonym_terms(f1):
    vocab = collect_vocabulary(f1)
    assert "happy" in vocab["reflexion"]
    assert "anitha" in vocab["dancer"]
    assert set(vocab) <= {
        "dancer",
        "step",
        "step_class",
        "body_part",
        "posture",
        "reflexion",
        "instrument",
        "background",
        "costume",
    }


def test_random_queries_round_trip_through_text(medium_corpus):
    vocab = collect_vocabulary(medium_corpus)
    rng = CounterRng(21, "roundtrip")
    for _ in range(50):
        query = random_containment_query(vocab, rng)
        assert parse_query(format_query(query)) == query


def test_benchmark_smoke():
    report = run_benchmark([10, 40], n_queries=4, seed=1, reps=2)
    assert len(report.rows) == 4
    assert {r.engine for r in report.rows} == {"sequential", "indexed"}
    assert [size for size, _ in report.build_ms] == [10, 40]
    assert all(r.median_ms > 0 and r.mean_ms > 0 for r in report.rows)
    assert all(build > 0 for _, build in report.build_ms)
    assert report.row(10, "indexed").n_queries == 4
    with pytest.raises(KeyError):
        report.row(99, "indexed")
    text = format_bench_report(report)
    assert "median_ms" in text and "indexed" in text


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sizes": []},
        {"sizes": [0]},
        {"sizes": [10], "n_queries": 0},
        {"sizes": [10], "reps": 0},
    ],
)
def test_benchmark_rejects_degenerate_settings(kwargs):
    with pytest.raises(ValueError):
        run_benchmark(**kwargs)
