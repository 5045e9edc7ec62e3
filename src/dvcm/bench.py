"""Latency benchmarking of the two engines, and the random query workload.

The workload generator draws containment queries (single atoms, paired
dancer+attribute conjunctions, and/or trees up to depth three, all three
granularities) with terms taken from the corpus vocabulary, plus a sprinkle
of terms that match nothing. The same seeded workload drives both engines.

Timing uses the monotonic performance counter. Each query runs once per
engine as a discarded warm-up, then a fixed number of repetitions; the
recorded latency is the median repetition. Before any timing, the two
engines' results are compared query by query; a single disagreement aborts
the benchmark, since speed numbers for a wrong engine are meaningless.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .engine import IndexedEngine, SequentialScanEngine
from .generator import CounterRng, GenParams, generate_corpus
from .model import Corpus, Granularity
from .normalize import normalize_key
from .qlang import And, FacetAtom, Or, Query, format_query
from .vocab import BenchmarkMismatchError

_PAIRED_FACETS = ("step", "step_class", "posture", "reflexion")


def collect_vocabulary(corpus: Corpus) -> dict[str, tuple[str, ...]]:
    """Facet terms worth querying for, harvested from the corpus."""
    postures: set[str] = set()
    reflexions: set[str] = set()
    body_parts: set[str] = set()
    for shot in corpus.shots.values():
        for occ in shot.occurrences:
            postures.add(occ.posture)
            reflexions.add(occ.reflexion)
    for sd in corpus.step_defs.values():
        body_parts.update(sd.body_parts)
    vocab = {
        "dancer": tuple(sorted({normalize_key(d.name) for d in corpus.dancers.values()})),
        "step": tuple(sorted({normalize_key(s.name) for s in corpus.step_defs.values()})),
        "step_class": tuple(
            sorted({s.step_class.casefold() for s in corpus.step_defs.values()})
        ),
        "body_part": tuple(sorted({normalize_key(p) for p in body_parts})),
        "posture": tuple(sorted({normalize_key(p) for p in postures})),
        "reflexion": tuple(
            sorted({normalize_key(r) for r in reflexions} | {"romantic", "joy", "happy"})
        ),
        "instrument": tuple(
            sorted({normalize_key(i.name) for i in corpus.instruments.values()})
        ),
        "background": tuple(
            sorted({normalize_key(b.name) for b in corpus.backgrounds.values()})
        ),
        "costume": tuple(sorted({normalize_key(c.name) for c in corpus.costumes.values()})),
    }
    return {facet: terms for facet, terms in vocab.items() if terms}


def _random_atom(vocab: dict[str, tuple[str, ...]], rng: CounterRng) -> FacetAtom:
    facet = rng.choice(sorted(vocab))
    if facet != "step_class" and rng.chance(10):
        return FacetAtom(facet, "no such term")
    return FacetAtom(facet, rng.choice(vocab[facet]))


def _random_paired(vocab: dict[str, tuple[str, ...]], rng: CounterRng) -> And:
    dancer = FacetAtom("dancer", rng.choice(vocab["dancer"]))
    candidates = [f for f in _PAIRED_FACETS if f in vocab]
    facet = rng.choice(candidates)
    other = FacetAtom(facet, rng.choice(vocab[facet]))
    return And(dancer, other) if rng.chance(50) else And(other, dancer)


def _random_node(vocab: dict[str, tuple[str, ...]], rng: CounterRng, depth: int):
    can_pair = "dancer" in vocab and any(f in vocab for f in _PAIRED_FACETS)
    if depth <= 0:
        if can_pair and rng.chance(30):
            return _random_paired(vocab, rng)
        return _random_atom(vocab, rng)
    roll = rng.randint(0, 99)
    if roll < 30:
        return _random_atom(vocab, rng)
    if roll < 50 and can_pair:
        return _random_paired(vocab, rng)
    left = _random_node(vocab, rng, depth - 1)
    right = _random_node(vocab, rng, depth - 1)
    return And(left, right) if roll < 80 else Or(left, right)


def random_containment_query(
    corpus_vocab: dict[str, tuple[str, ...]], rng: CounterRng, max_depth: int = 3
) -> Query:
    """One random containment query over the harvested vocabulary."""
    gran = rng.choice(
        (Granularity.SHOT, Granularity.SCENE, Granularity.COMPOUND_SCENE)
    )
    body = _random_node(corpus_vocab, rng, rng.randint(0, max_depth))
    return Query(gran, body)


@dataclass(frozen=True)
class BenchRow:
    size: int
    engine: str
    n_queries: int
    median_ms: float
    mean_ms: float


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    build_ms: tuple[tuple[int, float], ...]

    def row(self, size: int, engine: str) -> BenchRow:
        for r in self.rows:
            if r.size == size and r.engine == engine:
                return r
        raise KeyError((size, engine))


def _time_engine(engine, queries, reps: int) -> list[float]:
    """Median latency per query in milliseconds."""
    medians = []
    for query in queries:
        engine.execute(query)  # warm-up, discarded
        samples = []
        for _ in range(reps):
            start = time.perf_counter_ns()
            engine.execute(query)
            samples.append(time.perf_counter_ns() - start)
        medians.append(statistics.median(samples) / 1e6)
    return medians


def catalog_size_for(n_shots: int) -> int:
    """Dancer/step catalog size for a benchmark corpus of n_shots shots.

    Catalogs grow with the square root of the footage so that individual
    terms stay about equally selective across scales, as they would in a
    growing real collection; a fixed tiny catalog would make every atom
    match a constant fraction of the corpus.
    """
    return max(6, round(n_shots ** 0.5))


def run_benchmark(
    sizes: list[int],
    n_queries: int = 50,
    seed: int = 0,
    reps: int = 30,
    n_dancers: int | None = None,
    n_step_defs: int | None = None,
) -> BenchReport:
    """Generate one corpus per size and race both engines on a shared workload.

    Index build time, that of ``IndexedEngine(corpus)``, which builds an
    unpinned index set and so never hashes the corpus, is measured
    separately and reported per size, never folded into query latencies. Raises BenchmarkMismatchError as soon as
    the engines disagree on any query. Catalog sizes scale with the corpus
    unless pinned explicitly.
    """
    if not sizes:
        raise ValueError("need at least one corpus size")
    if any(s < 1 for s in sizes):
        raise ValueError("corpus sizes must be positive")
    if n_queries < 1:
        raise ValueError("need at least one query")
    if reps < 1:
        raise ValueError("need at least one repetition")

    rows: list[BenchRow] = []
    builds: list[tuple[int, float]] = []
    for size in sorted(sizes):
        corpus = generate_corpus(
            GenParams(
                n_shots=size,
                n_dancers=n_dancers if n_dancers is not None else catalog_size_for(size),
                n_step_defs=n_step_defs
                if n_step_defs is not None
                else catalog_size_for(size),
                seed=seed,
            )
        )
        start = time.perf_counter_ns()
        indexed = IndexedEngine(corpus)
        builds.append((size, (time.perf_counter_ns() - start) / 1e6))

        sequential = SequentialScanEngine(corpus)
        vocab = collect_vocabulary(corpus)
        rng = CounterRng(seed, f"workload-{size}")
        queries = [random_containment_query(vocab, rng) for _ in range(n_queries)]

        for query in queries:
            if sequential.execute(query) != indexed.execute(query):
                raise BenchmarkMismatchError(size, format_query(query))

        for name, engine in (("sequential", sequential), ("indexed", indexed)):
            medians = _time_engine(engine, queries, reps)
            rows.append(
                BenchRow(
                    size=size,
                    engine=name,
                    n_queries=n_queries,
                    median_ms=statistics.median(medians),
                    mean_ms=statistics.fmean(medians),
                )
            )
    return BenchReport(rows=tuple(rows), build_ms=tuple(builds))


def format_bench_report(report: BenchReport) -> str:
    builds = dict(report.build_ms)
    header = f"{'size':>7}  {'engine':<10}  {'queries':>7}  {'median_ms':>10}  {'mean_ms':>10}  {'build_ms':>9}"
    lines = [header]
    for row in report.rows:
        build = f"{builds[row.size]:>9.2f}" if row.engine == "indexed" else f"{'-':>9}"
        lines.append(
            f"{row.size:>7}  {row.engine:<10}  {row.n_queries:>7}  "
            f"{row.median_ms:>10.4f}  {row.mean_ms:>10.4f}  {build}"
        )
    return "\n".join(lines)
