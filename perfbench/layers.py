"""Per-layer metrics of a traced run, computed from its spans and counts.

Times are self times (a span's duration minus its direct children's) summed
over the layer's functions; ``*_ms`` metrics are medians of one call's
duration. Counts come from hooks that read each traced call's arguments and
result; a hook runs in a ``trace.hook`` span of its own, so its cost lands in
the tracing overhead and in no layer's self time.
"""

from __future__ import annotations

import os
import statistics

from tracer import self_times


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_preprocess(counts, args, result):
    raw = [tok for rec in args[0].records for tok in rec.text.split()]
    counts["preprocess.raw_tokens"] += len(raw)
    counts["preprocess.distinct_raw_tokens"] += len(set(raw))
    processed = result[0].records
    counts["preprocess.tokens_out"] += sum(len(r.text.split()) for r in processed)
    counts["preprocess.empty_records"] += sum(1 for r in processed if not r.text)


def _count_tfidf(counts, args, result):
    counts["vectorize.tfidf_rows"] += result.matrix.shape[0]
    counts["vectorize.tfidf_nnz"] += result.matrix.nnz


def _count_vocab(counts, args, result):
    counts["vectorize.vocab_calls"] += 1
    counts["vectorize.vocab_words"] += len(result.words)


def _count_predict(counts, args, result):
    counts["mnb.scored_docs"] += len(result)


def _count_score(counts, args, result):
    counts["mnb.scored_docs"] += 1


def _count_model_file(position):
    def hook(counts, args, result):
        size = _size(args[position])
        counts["mnb.model_bytes"] = max(counts["mnb.model_bytes"], size)

    return hook


def _count_write(counts, args, result):
    counts["cli.files_written"] += 1
    counts["cli.bytes_written"] += _size(args[0])


HOOKS = {
    "preprocess.preprocess_with_decisions": _count_preprocess,
    "vectorize.tfidf": _count_tfidf,
    "vectorize.build_vocabulary": _count_vocab,
    "mnb.predict_rows": _count_predict,
    "mnb.score": _count_score,
    "mnb.save_model": _count_model_file(1),
    "mnb.load_model": _count_model_file(0),
    "cli._atomic_write": _count_write,
}

# layer time metric -> traced functions whose self time it sums
SELF_TIME = {
    "corpus_io.load_s": ("corpus_io.load_corpus",),
    "corpus_io.split_s": ("corpus_io.stratified_split",),
    "vectorize.vocab_s": ("vectorize.build_vocabulary",),
    "vectorize.tfidf_s": ("vectorize.tfidf",),
    "mnb.fit_s": ("mnb.fit", "mnb.fit_from_masses", "mnb.class_masses"),
    "mnb.predict_s": ("mnb.predict_rows",),
    "mnb.save_s": ("mnb.save_model",),
    "mnb.load_s": ("mnb.load_model",),
    "experiments.aggregate_s": ("experiments.aggregate",),
    "lexstats.sttr_s": ("lexstats.sttr",),
    "lexstats.hapax_s": ("lexstats.hapax_report",),
    "lexstats.zipf_s": ("lexstats.zipf_fit", "lexstats.ranked_frequencies"),
    "lexstats.heaps_s": ("lexstats.heaps_curve",),
    "genre_graph.distance_s": ("genre_graph.distance_matrix",),
    "genre_graph.cluster_s": ("genre_graph.hierarchical_cluster",),
    "genre_graph.mst_s": ("genre_graph.minimum_spanning_tree", "genre_graph.complete_graph"),
    "genre_graph.dot_s": ("genre_graph.export_dot", "genre_graph.closeness_centrality"),
    "cli.write_s": ("cli._atomic_write",),
}
# per-call latency metric (ms) -> function; only calls made by the benchmark
# itself (not nested in another traced call) are counted
CALL_MS = {
    "preprocess.filter_ms": "preprocess.filter_tokens",
    "vectorize.row_ms": "vectorize.tfidf_row",
    "mnb.score_ms": "mnb.score",
}


def layer_metrics(spans, counts, pool_rounds: int) -> dict[str, float]:
    own = self_times(spans)
    names = [s[0] for s in spans]
    out: dict[str, float] = {}
    for metric, funcs in SELF_TIME.items():
        out[metric] = sum(t for n, t in zip(names, own) if n in funcs)
    out["preprocess.s"] = sum(t for n, t in zip(names, own) if n.startswith("preprocess."))
    out["experiments.self_s"] = sum(
        t for n, t in zip(names, own)
        if n.startswith("experiments.") and n != "experiments.aggregate"
    )
    for metric, func in CALL_MS.items():
        calls = [1e3 * (end - start) for name, start, end, parent, _ in spans
                 if name == func and parent < 0]
        out[metric] = statistics.median(calls) if calls else 0.0

    out["corpus_io.split_calls"] = names.count("corpus_io.stratified_split")
    # fitted models: calls to fit, and to fit_from_masses outside fit
    out["mnb.fit_calls"] = names.count("mnb.fit") + sum(
        1 for name, _, _, parent, _ in spans
        if name == "mnb.fit_from_masses" and (parent < 0 or names[parent] != "mnb.fit")
    )
    for key in ("preprocess.raw_tokens", "preprocess.distinct_raw_tokens",
                "preprocess.tokens_out", "preprocess.empty_records",
                "vectorize.tfidf_rows", "vectorize.tfidf_nnz", "mnb.scored_docs",
                "mnb.model_bytes", "cli.files_written", "cli.bytes_written"):
        out[key] = counts[key]
    calls = counts["vectorize.vocab_calls"]
    out["vectorize.vocab_size_mean"] = counts["vectorize.vocab_words"] / calls if calls else 0.0
    out["experiments.task_bytes"] = counts["pool.sent_bytes"] / pool_rounds if pool_rounds else 0.0
    out["experiments.result_bytes"] = (
        counts["pool.received_bytes"] / pool_rounds if pool_rounds else 0.0
    )
    return out
