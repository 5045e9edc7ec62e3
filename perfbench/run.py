"""Benchmark of dvcm end to end and layer by layer.

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 54 --trace 0

Run it from the root of a source checkout: it imports dvcm from ``src`` and
starts every child as ``python -m dvcm.cli`` with ``PYTHONPATH`` pointing
there, one child at a time, with no threads. A run is made of units of five
phases:

    ingest   dvcm gen -> dvcm validate -> dvcm index as cold processes; the
             first cycle writes the files every later unit reads
    setup    load_corpus + load_index + both engines in this process
    cold     one query text through dvcm query with and without --index; the
             texts cover the whole language in a seeded order
    warm     one closed-loop client: a pass over the warm queries, each
             parsed from text and run on the indexed engine
    scan     a share of the warm queries on the sequential scan engine

Every phase runs at least the workload's UNITS, and the workload's focus
phase fills the rest of --seconds, counted from the first unit. Units are
interleaved, always from the phase furthest behind, so each metric samples
the whole run and a drift in the machine's speed moves all metrics alike
rather than one of them.

Every time in the end-to-end metrics is CPU time (user + system) of the
process doing the work: a child's from os.wait4, the benchmark's own from
time.process_time. On an idle machine it equals wall time; unlike wall
time it leaves out the time the host takes a virtual CPU away, which on a
shared host varies from minute to minute. Wall-time medians are printed
beside the metrics.

Every answer is checked, outside the timed regions, against
SequentialScanEngine, the reference engine: cold children's stdout, every
warm query, and the files of repeated ingest cycles, which must be
byte-identical. A failure is a non-zero exit, a traceback or a mismatch.

With ``--trace 0`` the last line holds the end-to-end metrics. With
``--trace 1`` the benchmark also times its calls into each dvcm layer, and
the last line holds the per-layer metrics; the spans are written to
``.perfbench/`` in the checkout. perfbench/README.md maps each layer metric
to the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from querygen import FULL_COVERAGE, GRANULARITIES, QueryGenerator, Vocabulary
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SHOTS = 10_000
# Distinct warm queries: enough for the list to cover the whole language.
WARM_QUERIES = FULL_COVERAGE
SCAN_UNITS = 4
# Latency percentiles are taken over the warm texts, each at its median
# over the passes; the tail is the highest of these percentiles with ten
# texts beyond it.
TAIL_LADDER = (99, 95, 90, 50)
# Units each phase runs at least, per workload. Every workload reports every
# metric, so each takes a median over at least three units of every phase.
# The workload's focus phase also fills the rest of --seconds.
UNITS = {
    "cold-cli": {"ingest": 4, "setup": 3, "cold": 5, "warm": 5, "scan": SCAN_UNITS},
    "warm-mixed": {"ingest": 3, "setup": 3, "cold": 4, "warm": 10, "scan": SCAN_UNITS},
}
FOCUS = {"cold-cli": "cold", "warm-mixed": "warm"}  # BENCHMARK.json says why
CHILD_TIMEOUT_S = 150
DVCM_MODULES = ("engine", "generator", "index", "model", "normalize", "qlang", "song_types")


def catalog_size_for(n_shots: int) -> int:
    """Dancer and step catalog size: the square root of the footage.

    The same rule as dvcm.bench.catalog_size_for, kept here so that an edit
    to the program cannot change the workload.
    """
    return max(6, round(n_shots ** 0.5))


# --------------------------------------------------------------------------
# Children


@dataclass
class Child:
    seconds: float
    cpu_seconds: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.code == 0 and "Traceback" not in self.stderr


class Launcher:
    """Runs dvcm children through launcher.py, a process that stays small.

    Start it before the benchmark loads any corpus: Linux carries the peak
    RSS of a parent into its children, so the children's own peaks are
    only readable from a small parent.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        env = dict(os.environ)
        env.pop("DVCM_SYNONYMS", None)
        env["PYTHONPATH"] = str(SRC)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, args: list[str]) -> Child:
        out_path, err_path = self.workdir / "child.out", self.workdir / "child.err"
        request = {"args": args, "cwd": str(self.workdir), "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("perfbench: the child launcher exited")
        reply = json.loads(line)
        return Child(
            seconds=reply["seconds"],
            cpu_seconds=reply["cpu_seconds"],
            rss_mb=reply["rss_kb"] / 1024.0,
            code=reply["code"],
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# --------------------------------------------------------------------------
# Scheduling


@dataclass
class Phase:
    name: str
    units: int  # at least this many units
    done: int = 0
    spent: float = 0.0


def interleave(phases: list[Phase], focus: str, start: float, seconds: float, step) -> None:
    """Run units of the phase furthest behind until every phase has its units
    and `seconds` have passed since `start`.

    The focus phase's progress is also capped by the share of `seconds`
    gone, so it takes the time the other phases leave, spread over the run.
    """
    def progress(phase: Phase) -> float:
        done = phase.done / phase.units
        if phase.name == focus:
            done = min(done, (time.perf_counter() - start) / seconds)
        return done

    while True:
        phase = min(phases, key=progress)
        if progress(phase) >= 1.0:
            return
        unit_start = time.perf_counter()
        step(phase.name)
        phase.spent += time.perf_counter() - unit_start
        phase.done += 1


# --------------------------------------------------------------------------
# The benchmark


@dataclass
class Engines:
    corpus: object
    index: object
    indexed: object
    scan: object


LIFT_NAMES = {"shots": "shot", "scenes": "scene", "cscenes": "cscene"}
SAMPLE_UNITS = {
    "ingest_gen_s": "s",
    "ingest_validate_s": "s",
    "ingest_index_s": "s",
    "ingest_index_rss_mb": "MB",
    "setup_s": "s",
}


def gran_of(text: str) -> str:
    return text.split()[1]


def mix(pairs) -> dict[str, dict[str, int]]:
    """Query counts by kind, then by granularity."""
    out: dict[str, dict[str, int]] = {}
    for kind, gran in pairs:
        out.setdefault(kind, dict.fromkeys(GRANULARITIES, 0))[gran] += 1
    return out


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rank(pct: int, n: int) -> int:
    """Nearest-rank position (1-based) of a percentile in n sorted samples."""
    return max(1, math.ceil(pct / 100 * n))


class Bench:
    def __init__(self, dvcm, name: str, seed: int, seconds: float, tracer: Tracer,
                 workdir: Path, launcher: Launcher):
        self.dvcm = dvcm
        self.name = name
        self.catalog = catalog_size_for(SHOTS)
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.launcher = launcher
        self.corpus_path = workdir / "corpus.json"
        self.index_path = workdir / "index.json"
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLE_UNITS}
        # wall times of what is timed in CPU time, printed beside the metrics
        self.wall: dict[str, list[float]] = {}
        self.shape: dict = {}
        self.notes: list[str] = []
        self.first_digests: tuple[str, str] | None = None
        self.engines: Engines | None = None
        self.cold_texts = None
        self.cold_runs: dict[str, list] = {"index": [], "scan": []}
        self.queries: list[tuple[str, str, str]] = []
        self.warm_passes = 0
        self.warm_seconds = 0.0
        self.traced_warm_seconds = 0.0
        self.latencies: list[list[float]] = []
        self.answers: list[list[str]] = []
        self.scan_answers: list[list[str]] = []
        self.scan_seconds = 0.0

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def child(self, args: list[str], span: str, request: str | None = None) -> Child:
        with self.tracer.span(span, request):
            return self.launcher.run(args)

    # -- units ------------------------------------------------------------------

    def ingest(self) -> None:
        n, catalog = SHOTS, str(self.catalog)
        request = f"ingest-{len(self.samples['ingest_gen_s'])}"
        gen = self.child(["gen", "--shots", str(n), "--dancers", catalog, "--steps", catalog,
                          "--seed", str(self.seed), "-o", self.corpus_path.name],
                         "cli.gen", request)
        validate = self.child(["validate", self.corpus_path.name], "cli.validate", request)
        index = self.child(["index", self.corpus_path.name, "-o", self.index_path.name],
                           "cli.index", request)
        for name, child in (("gen", gen), ("validate", validate), ("index", index)):
            if not self.op(child.ok, f"dvcm {name} exited {child.code}: {child.stderr[-300:]}"):
                raise SystemExit("perfbench: ingest failed: " + "; ".join(self.failures))
        self.op(validate.stdout.startswith("corpus OK") and f" {n} shot(s)" in validate.stdout,
                f"dvcm validate did not report {n} shots")
        for name, child in (("gen", gen), ("validate", validate), ("index", index)):
            self.samples[f"ingest_{name}_s"].append(child.cpu_seconds)
            self.wall.setdefault(f"ingest_{name}_s", []).append(child.seconds)
        self.samples["ingest_index_rss_mb"].append(index.rss_mb)
        digests = (_digest(self.corpus_path), _digest(self.index_path))
        if self.first_digests is None:
            self.first_digests = digests
        else:
            self.op(digests == self.first_digests,
                    "an ingest cycle wrote files that differ from the first cycle's")

    def setup(self) -> None:
        """Load both engines from the files; replaces the previous ones."""
        dvcm, tracer = self.dvcm, self.tracer
        request = f"setup-{len(self.samples['setup_s'])}"
        self.engines = None
        gc.collect()
        start, wall_start = time.process_time(), time.perf_counter()
        with tracer.span("model.load_corpus", request):
            corpus = dvcm.model.load_corpus(self.corpus_path)
        with tracer.span("index.load_index", request):
            index = dvcm.index.load_index(self.index_path, corpus)
        with tracer.span("engine.indexed_init", request):
            indexed = dvcm.engine.IndexedEngine(corpus, index)
        with tracer.span("engine.scan_init", request):
            scan = dvcm.engine.SequentialScanEngine(corpus)
        self.samples["setup_s"].append(time.process_time() - start)
        self.wall.setdefault("setup_s", []).append(time.perf_counter() - wall_start)
        self.engines = Engines(corpus, index, indexed, scan)
        if tracer.enabled:
            with tracer.span("model.corpus_fingerprint", request):
                dvcm.model.corpus_fingerprint(corpus)

    def cold(self) -> None:
        kind, _gran, text = next(self.cold_texts)
        paths = ("index", "scan") if len(self.cold_runs["index"]) % 2 == 0 else ("scan", "index")
        for path in paths:
            args = ["query", self.corpus_path.name, text]
            if path == "index":
                args += ["--index", self.index_path.name]
            self.cold_runs[path].append((kind, text, self.child(args, f"cli.query_{path}")))

    def warm(self) -> None:
        parse_query, indexed = self.dvcm.qlang.parse_query, self.engines.indexed
        first = self.warm_passes == 0
        start = time.process_time()
        for i, (_kind, _gran, text) in enumerate(self.queries):
            t0 = time.process_time()
            ids = indexed.execute(parse_query(text))
            if first:
                self.answers.append(ids)
                self.latencies.append([])
            self.latencies[i].append(time.process_time() - t0)
        self.warm_seconds += time.process_time() - start
        if self.tracer.enabled:
            # the same pass again through the traced replay, right after the
            # untraced one: the ratio of their times is the tracing overhead
            start = time.process_time()
            for i, (kind, _gran, text) in enumerate(self.queries):
                self.replay(indexed, "indexed", kind, text, f"warm-{self.warm_passes}-{i}")
            self.traced_warm_seconds += time.process_time() - start
        self.warm_passes += 1

    def scan(self) -> None:
        parse_query, scan = self.dvcm.qlang.parse_query, self.engines.scan
        begin = len(self.scan_answers)
        share = self.queries[begin:begin + math.ceil(len(self.queries) / SCAN_UNITS)]
        start = time.process_time()
        for i, (kind, _gran, text) in enumerate(share, begin):
            if self.tracer.enabled:
                self.scan_answers.append(self.replay(scan, "scan", kind, text, f"scan-{i}"))
            else:
                self.scan_answers.append(scan.execute(parse_query(text)))
        self.scan_seconds += time.process_time() - start

    def replay(self, engine, engine_name: str, kind: str, text: str, request: str) -> list[str]:
        """One query in-process, one span per layer; what engine.execute does."""
        dvcm, tracer = self.dvcm, self.tracer
        with tracer.span("qlang.parse_query", request):
            query = dvcm.qlang.parse_query(text)
        with tracer.span(f"engine.{engine_name}.shots_for_body.{kind}", request):
            shots = engine.shots_for_body(query.body)
        with tracer.span(f"model.lift_granularity.{LIFT_NAMES[gran_of(text)]}", request):
            return dvcm.model.lift_granularity(engine.corpus, shots, query.granularity)

    # -- the run ------------------------------------------------------------------

    def run(self) -> dict[str, tuple[float, str]]:
        start = time.perf_counter()
        self.ingest()
        with open(self.corpus_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.shape["corpus"] = layers.corpus_shape(doc)
        vocab = Vocabulary(doc)
        del doc
        self.cold_texts = itertools.cycle(
            QueryGenerator(vocab, self.seed, "cold").take_shuffled(WARM_QUERIES))
        self.queries = QueryGenerator(vocab, self.seed, "warm").take(WARM_QUERIES)
        self.setup()

        phases = [Phase(phase, units) for phase, units in UNITS[self.name].items()]
        for phase in phases:
            if phase.name in ("ingest", "setup"):
                phase.done = 1
        interleave(phases, FOCUS[self.name], start, self.seconds,
                   lambda name: getattr(self, name)())
        self.notes.append("phases (time leaves out the first ingest and setup): " + ", ".join(
            f"{p.name} {p.done} units in {p.spent:.1f} s" for p in phases))
        self.check()
        return self.end_to_end()

    def check(self) -> None:
        """Every answer against the reference engine, outside the timed regions."""
        scan = self.engines.scan
        for path, engine, name in (("index", self.engines.indexed, "indexed"),
                                   ("scan", scan, "scan")):
            for i, (kind, text, child) in enumerate(self.cold_runs[path]):
                # the replay also gives traced runs the phases a child went through
                replayed = self.replay(engine, name, kind, text, f"cold-{path}-{i}")
                expected = replayed if engine is scan else scan.execute(
                    self.dvcm.qlang.parse_query(text))
                self.op(child.ok and child.stdout.split() == expected,
                        f"dvcm query ({path}, exit {child.code}) disagrees with the scan: {text}")
        for (kind, _gran, text), got, expected in zip(self.queries, self.answers,
                                                      self.scan_answers):
            self.op(got == expected, f"warm {kind} query, indexed != scan: {text}")
        self.attempted += sum(len(samples) - 1 for samples in self.latencies)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        med = statistics.median
        metrics = {name: (med(values), SAMPLE_UNITS[name]) for name, values in self.samples.items()}
        for path, runs in self.cold_runs.items():
            metrics[f"cold_query_{path}_s"] = (med(c.cpu_seconds for *_, c in runs), "s")
            self.wall[f"cold_query_{path}_s"] = [c.seconds for *_, c in runs]
            metrics[f"cold_query_{path}_rss_mb"] = (med(c.rss_mb for *_, c in runs), "MB")
        corpus_bytes = self.corpus_path.stat().st_size
        index_bytes = self.index_path.stat().st_size
        metrics["index_bytes_per_corpus_byte"] = (index_bytes / corpus_bytes, "B/B")

        latencies = sorted(med(samples) for samples in self.latencies)
        n = len(latencies)
        tail = next(p for p in TAIL_LADDER if n - _rank(p, n) >= 10)
        completed = sum(len(samples) for samples in self.latencies)
        metrics["warm_queries_per_s"] = (completed / self.warm_seconds, "1/s")
        metrics["warm_query_p50_ms"] = (latencies[_rank(50, n) - 1] * 1e3, "ms")
        metrics["warm_query_tail_ms"] = (latencies[_rank(tail, n) - 1] * 1e3, "ms")
        metrics["warm_scan_queries_per_s"] = (len(self.scan_answers) / self.scan_seconds, "1/s")
        self.notes.append("wall-time medians of the CPU-timed units: " + ", ".join(
            f"{name} {med(values):.4g} s" for name, values in self.wall.items()))
        self.notes.append(f"warm_query_tail_ms is p{tail} of {n} query texts, each the median "
                          f"of {self.warm_passes} passes ({completed} samples)")

        self.shape.update(
            gen_params={"shots": SHOTS, "dancers": self.catalog,
                        "steps": self.catalog, "seed": self.seed},
            corpus_bytes=corpus_bytes,
            index_bytes=index_bytes,
            units={"ingest": len(self.samples["ingest_gen_s"]),
                   "setup": len(self.samples["setup_s"]),
                   "cold_pairs": len(self.cold_runs["index"]),
                   "warm_passes": self.warm_passes},
            warm_queries=mix((kind, gran) for kind, gran, _ in self.queries),
            cold_queries=mix((kind, gran_of(text)) for kind, text, _ in self.cold_runs["index"]),
        )
        return metrics


# --------------------------------------------------------------------------
# Entry point


def import_dvcm():
    """The dvcm package from this checkout's sources, with its layer modules."""
    if not (SRC / "dvcm" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no dvcm sources under {SRC}; run it from a full checkout")
    sys.path.insert(0, str(SRC))
    dvcm = importlib.import_module("dvcm")
    for name in DVCM_MODULES:
        importlib.import_module(f"dvcm.{name}")
    return dvcm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FOCUS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    dvcm = import_dvcm()
    os.environ.pop("DVCM_SYNONYMS", None)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    launcher = Launcher(workdir)
    tracer = Tracer(bool(args.trace))
    bench = Bench(dvcm, args.workload, args.seed, args.seconds, tracer, workdir, launcher)
    try:
        reported = bench.run()
        if tracer.enabled:
            # the traced run's own end-to-end figures, printed, not reported
            for name, (value, unit) in reported.items():
                bench.notes.append(f"end-to-end in this traced run: {name}: {value:.6g} {unit}")
            reported = layers.per_layer(bench)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer.enabled:
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")

    print(f"workload {args.workload}")
    print("shape: " + json.dumps(bench.shape, sort_keys=True))
    for failure in bench.failures:
        print(f"FAILED: {failure}")
    for note in bench.notes:
        print(note)
    for name, (value, unit) in reported.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
