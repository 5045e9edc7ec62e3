"""Command line interface.

    dvcm validate <corpus>                     integrity-check a corpus file
    dvcm index <corpus> -o <index>             build the inverted files
    dvcm query <corpus> [--index IX] "<text>"  run one query
    dvcm gen --shots N --dancers D -o <file>   generate a synthetic corpus
    dvcm bench [--sizes ...] [--queries N]     race the two engines
    dvcm eval [--fixture f1]                   score the fixture queries

Exit codes: 0 success, 1 usage or query error, 2 data or integrity error,
3 benchmark mismatch between engines. ``dvcm query`` parses the query text
before it reads any file, so a malformed query exits 1 even when the corpus
or the index is bad as well.

``dvcm query --index`` answers from the index alone. After the query it
hashes the corpus file without parsing it, loads the index and compares
the index's fingerprint with the hash. An index is built only from a file
that loads and validates, so a corpus file that is not UTF-8, not JSON or
not valid exits 2 with the fingerprint-mismatch line, not with the corpus
error that the scan (``dvcm query`` without ``--index``) reports. A
missing corpus file is reported before a bad index file, and a bad index
file before a mismatch.

Each command imports only the modules it runs. Besides ``dvcm`` itself
and ``vocab``, which every command loads, they are:

    validate        model, song_types
    index           model, index, normalize
    query --index   qlang, temporal, normalize, engine, index
    query           the same and model, for the scan
    gen             generator, model
    bench           bench, generator, model, qlang, temporal, normalize,
                    engine, index
    eval            evaluation, model, qlang, temporal, normalize, engine,
                    index
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

# What parsing the arguments and mapping errors to exit codes needs; each
# command imports the modules it runs.
from .vocab import (
    FIXTURE_NAMES,
    BenchmarkMismatchError,
    CorpusFormatError,
    IndexFormatError,
    IndexMismatchError,
    IntegrityError,
    QueryParseError,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this CLI reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _int_pair(text: str) -> tuple[int, int]:
    values = _int_list(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected LO,HI: {text!r}")
    return values[0], values[1]


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dvcm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="load a corpus and report integrity")
    p.add_argument("corpus")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("index", help="build inverted files for a corpus")
    p.add_argument("corpus")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("query", help="execute one query against a corpus")
    p.add_argument("corpus")
    p.add_argument("text", help="query text, e.g. 'find shots where dancer = \"Anitha\"'")
    p.add_argument("--index", help="saved index file; sequential scan when omitted")
    p.add_argument("--format", choices=("lines", "json"), default="lines")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--dancers", type=int, default=4)
    p.add_argument("--steps", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scene-range", type=_int_pair, default=(2, 8), metavar="LO,HI")
    p.add_argument(
        "--weights",
        type=_float_list,
        default=[1, 1, 1, 1, 1, 1],
        metavar="W1,...,W6",
        help="relative song-type weights",
    )
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="compare sequential and indexed latency")
    p.add_argument("--sizes", type=_int_list, default=[10, 100, 1000, 10000])
    p.add_argument("--queries", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=30)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("eval", help="run the shipped retrieval evaluation")
    p.add_argument("--fixture", default="f1", choices=FIXTURE_NAMES)
    p.set_defaults(func=_cmd_eval)

    return parser


def _cmd_validate(args) -> int:
    from .model import load_corpus
    from .song_types import song_type_of_compound_scene

    corpus = load_corpus(args.corpus)
    print(
        f"corpus OK: {len(corpus.videos)} video(s), {len(corpus.songs)} song(s), "
        f"{len(corpus.compound_scenes)} compound scene(s), {len(corpus.scenes)} "
        f"scene(s), {len(corpus.shots)} shot(s)"
    )
    for cs_id in sorted(corpus.compound_scenes):
        song_type = song_type_of_compound_scene(corpus, cs_id)
        print(f"{cs_id}: song type {song_type}")
    return 0


def _cmd_index(args) -> int:
    from .index import build_index, save_index
    from .model import load_corpus

    corpus = load_corpus(args.corpus)
    index = build_index(corpus)
    save_index(index, args.output)
    print(f"index written to {args.output}")
    return 0


def _cmd_query(args) -> int:
    from .qlang import parse_query

    query = parse_query(args.text)
    if args.index is not None:
        from .engine import IndexedEngine
        from .index import load_index
        from .vocab import corpus_file_fingerprint

        fingerprint = corpus_file_fingerprint(args.corpus)
        index = load_index(args.index)
        index.check_fingerprint(fingerprint)
        engine = IndexedEngine(None, index)
    else:
        from .engine import SequentialScanEngine
        from .model import load_corpus

        engine = SequentialScanEngine(load_corpus(args.corpus))
    ids = engine.execute(query)
    if args.format == "json":
        print(json.dumps({"granularity": query.granularity.value, "ids": ids}))
    else:
        for item in ids:
            print(item)
    return 0


def _cmd_gen(args) -> int:
    from .generator import GenParams, generate_corpus
    from .model import save_corpus

    params = GenParams(
        n_shots=args.shots,
        n_dancers=args.dancers,
        n_step_defs=args.steps,
        song_type_weights=tuple(args.weights),
        shots_per_scene_range=args.scene_range,
        seed=args.seed,
    )
    corpus = generate_corpus(params)
    save_corpus(corpus, args.output)
    print(f"corpus with {len(corpus.shots)} shot(s) written to {args.output}")
    return 0


def _cmd_bench(args) -> int:
    from .bench import format_bench_report, run_benchmark

    report = run_benchmark(
        sizes=args.sizes, n_queries=args.queries, seed=args.seed, reps=args.reps
    )
    if args.format == "json":
        doc = {
            "rows": [
                {
                    "size": r.size,
                    "engine": r.engine,
                    "queries": r.n_queries,
                    "median_ms": r.median_ms,
                    "mean_ms": r.mean_ms,
                }
                for r in report.rows
            ],
            "build_ms": {str(size): ms for size, ms in report.build_ms},
        }
        print(json.dumps(doc, indent=2))
    else:
        print(format_bench_report(report))
    return 0


def _cmd_eval(args) -> int:
    from .evaluation import format_eval_report, load_fixture, run_fixture_eval

    report = run_fixture_eval(load_fixture(args.fixture))
    print(format_eval_report(report))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command builds one large acyclic object graph, which reference
    # counting frees; the cyclic collector would only re-walk it. Callers
    # in the same process get their collector state back.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except QueryParseError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 1
    except BenchmarkMismatchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    except IntegrityError as exc:
        for violation in exc.violations:
            print(str(violation), file=sys.stderr)
        print(f"{len(exc.violations)} integrity violation(s)", file=sys.stderr)
        return 2
    except (CorpusFormatError, IndexFormatError, IndexMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # UnknownNameError, InfeasibleParamsError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
