"""Per-layer metrics of a traced run, named after the dvcm module measured.

Timings are medians of the spans the benchmark recorded around its calls
into each module. Counts are read from the public IndexSet and Corpus after
the run, outside every span. perfbench/README.md says which end-to-end
metric each one should move.
"""

from __future__ import annotations

import statistics

from querygen import KINDS

POSTING_FILES = ("dancers", "body_parts", "postures", "reflexions", "instruments",
                 "backgrounds", "costumes", "occurrence_shots")
_FILE_OF_FACET = {
    "dancer": "dancers",
    "posture": "postures",
    "instrument": "instruments",
    "background": "backgrounds",
    "costume": "costumes",
}
_TIMED_CALLS_S = (
    "model.load_corpus",
    "model.corpus_fingerprint",
    "index.load_index",
    "engine.indexed_init",
    "engine.scan_init",
    "generator.generate_corpus",
    "model.dumps_corpus",
    "model.validate_corpus",
    "song_types.classify",
    "index.build_index",
    "index.dumps_index",
)


def corpus_shape(doc: dict) -> dict:
    """Entity counts of a corpus document."""
    shots = doc["shots"]
    return {
        "shots": len(shots),
        "occurrences": sum(len(s["occurrences"]) for s in shots),
        "triplets": sum(len(s["spatial_triplets"]) for s in shots),
        "scenes": len(doc["scenes"]),
        "compound_scenes": len(doc["compound_scenes"]),
    }


def per_layer(bench) -> dict[str, tuple[float, str]]:
    metrics = replay_ingest(bench)
    metrics.update(timings(bench.tracer))
    metrics.update(counts(bench))
    overhead = bench.traced_warm_seconds / bench.warm_seconds
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    bench.notes.append(
        f"tracing overhead: {bench.warm_passes} warm passes took {bench.warm_seconds:.3f} s "
        f"untraced and {bench.traced_warm_seconds:.3f} s traced, a ratio of {overhead:.3f}")
    return metrics


def replay_ingest(bench) -> dict[str, tuple[float, str]]:
    """The write path in-process, one span per layer call; the index size."""
    dvcm, tracer = bench.dvcm, bench.tracer
    params = dvcm.generator.GenParams(n_shots=bench.shape["gen_params"]["shots"],
                                      n_dancers=bench.catalog, n_step_defs=bench.catalog,
                                      seed=bench.seed)
    with tracer.span("generator.generate_corpus"):
        corpus = dvcm.generator.generate_corpus(params)
    with tracer.span("model.dumps_corpus"):
        dvcm.model.dumps_corpus(corpus)
    with tracer.span("model.validate_corpus"):
        violations = dvcm.model.validate_corpus(corpus)
    # what dvcm validate does after loading: the song type of each compound scene
    with tracer.span("song_types.classify"):
        for cs_id in sorted(corpus.compound_scenes):
            dvcm.song_types.song_type_of_compound_scene(corpus, cs_id)
    with tracer.span("index.build_index"):
        index = dvcm.index.build_index(corpus)
    with tracer.span("index.dumps_index"):
        text = dvcm.index.dumps_index(index)
    bench.op(not violations, "the generated corpus fails validation")
    bench.op(corpus == bench.engines.corpus,
             "the corpus generated in-process differs from the one dvcm gen wrote")
    return {"index.bytes": (len(text.encode("utf-8")), "B")}


def timings(tracer) -> dict[str, tuple[float, str]]:
    metrics = {f"{name}_s": (tracer.median(name), "s") for name in _TIMED_CALLS_S}
    metrics["qlang.parse_query_ms"] = (tracer.median("qlang.parse_query") * 1e3, "ms")
    for engine in ("indexed", "scan"):
        for kind in KINDS:
            name = f"engine.{engine}.shots_for_body.{kind}"
            metrics[f"{name}_ms"] = (tracer.median(name) * 1e3, "ms")
    for gran in ("shot", "scene", "cscene"):
        name = f"model.lift_granularity.{gran}"
        metrics[f"{name}_ms"] = (tracer.median(name) * 1e3, "ms")

    # A cold child's time outside the calls replayed here: interpreter start,
    # imports and printing. The mean over the indexed and the scan path.
    def evaluation(path: str) -> float:
        per_query: dict[str, float] = {}
        for span in tracer.spans:
            request = span["request"] or ""
            if request.startswith(f"cold-{path}-"):
                per_query[request] = per_query.get(request, 0.0) + span["end"] - span["start"]
        return statistics.median(per_query.values())

    load = tracer.median("model.load_corpus")
    index_path = (load + tracer.median("index.load_index") + tracer.median("engine.indexed_init")
                  + evaluation("index"))
    scan_path = load + tracer.median("engine.scan_init") + evaluation("scan")
    unaccounted = ((tracer.median("cli.query_index") - index_path)
                   + (tracer.median("cli.query_scan") - scan_path)) / 2
    metrics["cli.unaccounted_s"] = (unaccounted, "s")
    return metrics


def _atoms(node, qlang):
    if isinstance(node, qlang.FacetAtom):
        yield node
    elif isinstance(node, (qlang.And, qlang.Or)):
        yield from _atoms(node.left, qlang)
        yield from _atoms(node.right, qlang)


def _posting_length(atom, engines, normalize, synonyms) -> int:
    """Entries of the posting lists a containment atom reads."""
    index, corpus = engines.index, engines.corpus
    facet, value = atom.facet, atom.value
    if facet in _FILE_OF_FACET:
        return len(getattr(index, _FILE_OF_FACET[facet]).get(value, ()))
    if facet == "body_part":
        return len(index.body_parts.get(normalize.normalize_body_part(value), ()))
    if facet == "reflexion":
        return sum(len(index.reflexions.get(key, ()))
                   for key in normalize.expand_reflexion(value, synonyms))
    # step and step_class resolve through each definition's occurrence record
    return sum(
        len(corpus.occ_ids_for_step_def(sd.id))
        for sd in corpus.step_defs.values()
        if (normalize.normalize_key(sd.name) if facet == "step" else sd.step_class.casefold())
        == value
    )


def _performing_scenes(engines, dancer: str) -> set[str]:
    shots = engines.index.shots_of_occurrences(engines.index.dancers.get(dancer, ()))
    return {engines.corpus.shots[s].scene_id for s in shots}


def counts(bench) -> dict[str, tuple[float, str]]:
    dvcm, engines = bench.dvcm, bench.engines
    synonyms = dvcm.normalize.load_synonym_table()
    result_shots: dict[str, list[int]] = {kind: [] for kind in KINDS}
    postings = containment_results = yielded = candidates = 0
    for kind, _gran, text in bench.queries:
        body = dvcm.qlang.parse_query(text).body
        shots = engines.indexed.shots_for_body(body)
        result_shots[kind].append(len(shots))
        if kind == "containment":
            postings += sum(_posting_length(atom, engines, dvcm.normalize, synonyms)
                            for atom in _atoms(body, dvcm.qlang))
            containment_results += len(shots)
        elif kind == "temporal":
            candidates += len(_performing_scenes(engines, body.dancer_a)
                              & _performing_scenes(engines, body.dancer_b))
            yielded += len({engines.corpus.shots[s].scene_id for s in shots})

    metrics = {f"engine.result_shots.{kind}": (statistics.fmean(values), "count")
               for kind, values in result_shots.items()}
    metrics["index.postings_read_per_result"] = (postings / max(containment_results, 1), "ratio")
    metrics["temporal.scene_yield"] = (yielded / max(candidates, 1), "ratio")
    for name in POSTING_FILES:
        entries = sum(len(postings) for postings in getattr(engines.index, name).values())
        metrics[f"index.posting_entries.{name}"] = (entries, "count")
    bench.notes.append(
        f"bases: engine.result_shots.* per query, over {len(bench.queries)} warm queries; "
        f"index.postings_read_per_result over {containment_results} containment result shots; "
        f"temporal.scene_yield over {candidates} scenes where both dancers perform"
    )
    return metrics
