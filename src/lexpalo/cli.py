"""Command-line interface.

Subcommands cover the full pipeline over a labeled lyric corpus:

* ``stats``      — lexical profile, sTTR, palo-exclusive vocabulary, and
                   Zipf/Heaps curves;
* ``train``      — repeated seeded trainings: accuracy distribution,
                   confusion matrices, and a saved full-corpus model;
* ``sweep-alpha``— validation accuracy across the smoothing grid;
* ``essential``  — per-palo essential word lists;
* ``distances``  — inter-genre cosine distances and a dendrogram;
* ``mst``        — minimum spanning tree + full genre network as DOT;
* ``classify``   — label new text with a saved model.

All randomness flows from ``--seed``; reports are written atomically
(temp file + rename) with deterministic ordering, so identical inputs give
byte-identical outputs. ``LEXPALO_THREADS`` caps worker processes for the
repeated-training commands (results do not depend on it).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, replace as dc_replace
from itertools import chain
from pathlib import Path

from . import __version__, experiments, genre_graph, lexstats, mnb, preprocess
from .corpus_io import (
    Corpus,
    SplitSpec,
    atomic_write,
    concat_by_palo,
    filter_top_palos,
    load_corpus,
    read_text,
)
from .errors import CorpusIoError, EmptyDocumentError, LexpaloError, ModelFormatError
from .seeding import derive_seed
from .vectorize import build_vocabulary, tfidf, tfidf_row

THREADS_ENV_VAR = "LEXPALO_THREADS"

# Stable, documented exit codes (0 = success, 2 = usage error: argparse
# rejections and invalid parameter values).
EXIT_CODES = {cls: cls.exit_code for cls in LexpaloError.__subclasses__()}


@dataclass(frozen=True)
class RunConfig:
    """Resolved options of one CLI invocation (defaults shown per field)."""

    corpus: Path | None = None
    format: str = "jsonl"
    output_dir: Path = Path(".")
    min_lyrics: int = 100
    gamma: float = preprocess.DEFAULT_GAMMA
    alpha: float = 0.11
    train_fraction: float = 0.85
    runs: int = 100
    seed: int = 0
    grid_step: float = 0.005
    epsilon: float = experiments.DEFAULT_EPSILON
    sttr_windows: int = 50
    linkage: str = "average"
    stopwords: Path | None = None
    concat_map: Path | None = None
    threads: int = 1
    model: Path | None = None
    text: str | None = None
    file: Path | None = None
    scores: bool = False


def _threads_from_env() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
    if threads < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {threads}")
    return threads


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexpalo",
        description="Lexical statistics and genre classification for labeled "
        "lyric corpora.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        # Options left out stay out of the namespace, so RunConfig's defaults
        # are the only ones declared.
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    def corpus_opts(sp):
        sp.add_argument("--corpus", required=True, type=Path,
                        help="corpus file (JSONL or CSV)")
        sp.add_argument("--format", choices=("jsonl", "csv"))
        sp.add_argument("--output-dir", type=Path,
                        help="directory for report files (created if missing)")
        sp.add_argument("--min-lyrics", type=int,
                        help="keep only palos with at least this many lyrics")
        sp.add_argument("--gamma", type=float,
                        help="case-normalization threshold in [0, 1]")
        sp.add_argument("--stopwords", type=Path,
                        help="stop-word file overriding the packaged list")
        sp.add_argument("--concat-map", type=Path,
                        help="phrase-concatenation file overriding the default")
        sp.add_argument("--seed", type=int, help="master seed for all randomness")

    def training_opts(sp):
        sp.add_argument("--alpha", type=float,
                        help="additive smoothing parameter (> 0)")
        sp.add_argument("--train-fraction", type=float)
        sp.add_argument("--runs", type=int,
                        help="number of seeded train/validation rounds")

    sp = command("stats", "lexical statistics reports")
    corpus_opts(sp)
    sp.add_argument("--sttr-windows", type=int,
                    help="number of sampled windows per palo "
                    f"(1 to {lexstats.STTR_MAX_WINDOWS})")

    sp = command("train", "repeated trainings + saved model")
    corpus_opts(sp)
    training_opts(sp)

    sp = command("sweep-alpha", "accuracy across the alpha grid")
    corpus_opts(sp)
    training_opts(sp)
    sp.add_argument("--grid-step", type=float)

    sp = command("essential", "per-palo essential word lists")
    corpus_opts(sp)
    training_opts(sp)
    sp.add_argument("--epsilon", type=float,
                    help="relative tolerance for the smoothing floor")

    sp = command("distances", "inter-genre distances + dendrogram")
    corpus_opts(sp)
    sp.add_argument("--linkage", choices=genre_graph.LINKAGES)

    sp = command("mst", "genre MST and network as DOT files")
    corpus_opts(sp)
    sp.add_argument("--linkage", choices=genre_graph.LINKAGES)

    sp = command("classify", "label new text with a saved model")
    sp.add_argument("--model", required=True, type=Path,
                    help="model file written by 'lexpalo train'")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--text", help="lyric text to classify")
    source.add_argument("--file", type=Path, help="file with the lyric text")
    sp.add_argument("--scores", action="store_true",
                    help="also print per-class log scores")
    return parser


# ---------------------------------------------------------------------------
# report writing

def _atomic_write(path: Path, write_fn) -> None:
    """Write a report via temp-file + rename, creating its directory."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CorpusIoError(f"cannot create {path.parent}: {exc}") from exc
    atomic_write(path, write_fn)


def _write_csv(path: Path, header: list[str], rows) -> None:
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    _atomic_write(path, write)


def _write_text(path: Path, content: str) -> None:
    _atomic_write(path, lambda fh: fh.write(content))


def _write_matrix_csv(path: Path, classes, matrix) -> None:
    rows = [[c] + [float(matrix[i, j]) for j in range(len(classes))]
            for i, c in enumerate(classes)]
    _write_csv(path, ["true"] + list(classes), rows)


def _safe_filename(palo: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in palo)


# ---------------------------------------------------------------------------
# shared pipeline steps

def _preprocess_config(config: RunConfig) -> preprocess.PreprocessConfig:
    base = preprocess.default_config(gamma=config.gamma)
    if config.stopwords is not None:
        base = dc_replace(
            base, stopwords=preprocess.load_stopwords(config.stopwords)
        )
    if config.concat_map is not None:
        base = dc_replace(
            base, concat_map=preprocess.load_concat_map(config.concat_map)
        )
    return base


def _prepare(config: RunConfig):
    """load -> filter -> preprocess; returns (raw, processed, pconfig, lowered)."""
    pconfig = _preprocess_config(config)
    raw = load_corpus(config.corpus, config.format)
    filtered = filter_top_palos(raw, config.min_lyrics)
    processed, decisions = preprocess.preprocess_with_decisions(filtered, pconfig)
    lowered = frozenset(d.word for d in decisions if d.lowered)
    return raw, processed, pconfig, lowered


def _nonempty_records(corpus: Corpus) -> Corpus:
    kept = [r for r in corpus.records if r.text.split()]
    return corpus if len(kept) == len(corpus.records) else Corpus(kept)


def _preprocess_state(
    pconfig: preprocess.PreprocessConfig, lowered: frozenset[str]
) -> dict:
    return {
        "gamma": pconfig.gamma,
        "punctuation": "".join(sorted(pconfig.punctuation)),
        "stopwords": sorted(pconfig.stopwords),
        "concat_map": [[p, j] for p, j in pconfig.concat_map],
        "lowered_words": sorted(lowered),
    }


# ---------------------------------------------------------------------------
# commands

def _cmd_stats(config: RunConfig) -> None:
    # checked before any report is written, not when the windows are drawn
    if not 1 <= config.sttr_windows <= lexstats.STTR_MAX_WINDOWS:
        raise ValueError(
            f"--sttr-windows must lie in [1, {lexstats.STTR_MAX_WINDOWS}], "
            f"got {config.sttr_windows}"
        )
    raw, processed, _, _ = _prepare(config)
    out = config.output_dir

    # Power laws describe the corpus as loaded (unfiltered, raw text).
    ranked = lexstats.ranked_frequencies(raw)
    zipf = lexstats._zipf_from_ranked(ranked)
    heaps_points, heaps_fit = lexstats.heaps_curve(
        raw, seed=derive_seed(config.seed, "heaps")
    )

    aggregates = concat_by_palo(processed)
    palos = sorted(aggregates)
    palo_tokens = {p: aggregates[p].text.split() for p in palos}
    for palo, tokens in palo_tokens.items():
        if not tokens:
            raise EmptyDocumentError(
                f"palo {palo!r} has no tokens after preprocessing"
            )
    corpus_tokens = [t for p in processed.palos for t in palo_tokens.get(p, [])]

    profile_rows = []
    for palo in palos:
        prof = lexstats.profile(palo_tokens[palo])
        profile_rows.append([palo, prof.tokens, prof.types, prof.ttr])
    total = lexstats.profile(corpus_tokens)
    profile_rows.append(["__corpus__", total.tokens, total.types, total.ttr])
    _write_csv(out / "profile.csv", ["palo", "L", "V", "TTR"], profile_rows)

    window = min(len(tokens) for tokens in palo_tokens.values())
    sttr_rows = []
    for palo in palos:
        res = lexstats.sttr(
            palo_tokens[palo], window, config.sttr_windows,
            seed=derive_seed(config.seed, "sttr", palo),
        )
        sttr_rows.append([palo, res.mean, res.stderr, res.window_length,
                          res.n_windows])
    null = lexstats.sttr(
        corpus_tokens, window, config.sttr_windows,
        seed=derive_seed(config.seed, "sttr", "__corpus__"),
    )
    sttr_rows.append(["__corpus__", null.mean, null.stderr, null.window_length,
                      null.n_windows])
    _write_csv(out / "sttr.csv",
               ["palo", "mean", "stderr", "window_length", "n_windows"],
               sttr_rows)

    hapax = lexstats.hapax_report(processed)
    palo_of = {rec.id: rec.palo for rec in processed.records}
    _write_csv(out / "hapax.csv", ["song_id", "palo", "r_h"],
               [[sid, palo_of[sid], ratio] for sid, ratio in hapax.per_song])
    _write_csv(out / "hapax_unique.csv", ["palo", "unique_types"],
               [[p, len(hapax.per_palo_unique[p])] for p in palos])

    _write_csv(out / "zipf.csv", ["rank", "freq"],
               [[rank, freq] for rank, (_, freq) in enumerate(ranked, start=1)])
    _write_csv(out / "heaps.csv", ["L", "V"], [list(p) for p in heaps_points])
    _write_csv(
        out / "powerlaw.csv",
        ["curve", "exponent", "intercept", "r_squared", "range_lo", "range_hi"],
        [
            ["zipf", zipf.exponent, zipf.intercept, zipf.r_squared,
             zipf.fit_range[0], zipf.fit_range[1]],
            ["heaps", heaps_fit.exponent, heaps_fit.intercept,
             heaps_fit.r_squared, heaps_fit.fit_range[0], heaps_fit.fit_range[1]],
        ],
    )
    print(
        f"stats: {len(processed)} lyrics, {len(palos)} palos; "
        f"zipf exponent {zipf.exponent:.4f}, heaps exponent "
        f"{heaps_fit.exponent:.4f}; reports in {out}"
    )


def _cmd_train(config: RunConfig) -> None:
    _, processed, pconfig, lowered = _prepare(config)
    out = config.output_dir
    split = SplitSpec(train_fraction=config.train_fraction, seed=config.seed)
    runs = experiments.run_trainings(
        processed, config.alpha, config.runs, split, threads=config.threads
    )
    report = experiments.aggregate(runs)

    accuracy_rows = []
    for i, run in enumerate(runs):
        for palo in report.classes:
            accuracy_rows.append([i, run.seed, palo, run.per_class_accuracy[palo]])
        accuracy_rows.append([i, run.seed, "__global__", run.global_accuracy])
    _write_csv(out / "accuracy.csv", ["run", "seed", "palo", "accuracy"],
               accuracy_rows)
    _write_matrix_csv(out / "confusion_mean.csv", report.classes,
                      report.mean_confusion)
    _write_matrix_csv(out / "confusion_only.csv", report.classes,
                      report.confusion_only)

    # One model over the whole corpus for later classification.
    full = _nonempty_records(processed)
    vocab = build_vocabulary(full)
    matrix = tfidf(full, vocab)
    model = mnb.fit(matrix, [r.palo for r in full.records], config.alpha)
    model_path = out / "model.json"
    mnb.save_model(model, model_path, _preprocess_state(pconfig, lowered))
    print(
        f"train: {config.runs} runs at alpha={config.alpha}; mean global "
        f"accuracy {report.mean_global_accuracy:.4f}; model in {model_path}"
    )


def _cmd_sweep_alpha(config: RunConfig) -> None:
    _, processed, _, _ = _prepare(config)
    out = config.output_dir
    split = SplitSpec(train_fraction=config.train_fraction, seed=config.seed)
    result = experiments.alpha_sweep(
        processed, config.grid_step, config.runs, split, threads=config.threads
    )
    _write_csv(out / "alpha_sweep.csv", ["alpha", "mean_accuracy"],
               [[a, m] for a, m in zip(result.grid, result.mean_accuracy)])
    best_mean = result.mean_accuracy[result.grid.index(result.best_alpha)]
    print(
        f"sweep-alpha: best alpha {result.best_alpha} "
        f"(mean accuracy {best_mean:.4f} over {result.n_runs} runs)"
    )


def _cmd_essential(config: RunConfig) -> None:
    _, processed, _, _ = _prepare(config)
    out = config.output_dir
    split = SplitSpec(train_fraction=config.train_fraction, seed=config.seed)
    report = experiments.essential_words(
        processed, config.alpha, config.runs, split, epsilon=config.epsilon
    )
    for palo in sorted(report.per_palo):
        _write_text(
            out / f"essential_{_safe_filename(palo)}.txt",
            "".join(w + "\n" for w in report.per_palo[palo]),
        )
    _write_csv(
        out / "essential_counts.csv",
        ["palo", "count", "normalized"],
        [[p, report.counts[p], report.normalized[p]]
         for p in sorted(report.per_palo)],
    )
    sizes = ", ".join(
        f"{p}={report.counts[p]}" for p in sorted(report.per_palo)
    )
    print(f"essential: {report.n_runs} runs at alpha={config.alpha}; {sizes}")


def _genre_vectors(processed: Corpus):
    aggregates = concat_by_palo(processed)
    agg_corpus = Corpus(aggregates[p] for p in sorted(aggregates))
    vocab = build_vocabulary(agg_corpus)
    matrix = tfidf(agg_corpus, vocab)
    return {
        rec.palo: matrix.matrix[i] for i, rec in enumerate(agg_corpus.records)
    }


def _cmd_distances(config: RunConfig) -> None:
    _, processed, _, _ = _prepare(config)
    out = config.output_dir
    m = genre_graph.distance_matrix(_genre_vectors(processed))
    _write_csv(
        out / "distances.csv",
        ["palo"] + list(m.labels),
        [[lab] + [float(v) for v in m.values[i]]
         for i, lab in enumerate(m.labels)],
    )
    dendro = genre_graph.hierarchical_cluster(m, linkage=config.linkage)
    _write_text(
        out / "dendrogram.json",
        json.dumps(
            {
                "labels": list(dendro.labels),
                "linkage": dendro.linkage,
                "merges": [list(merge) for merge in dendro.merges],
            },
            ensure_ascii=False,
        )
        + "\n",
    )
    closest = min(
        ((m.values[i, j], m.labels[i], m.labels[j])
         for i in range(len(m.labels)) for j in range(i + 1, len(m.labels))),
    )
    print(
        f"distances: {len(m.labels)} palos; closest pair "
        f"{closest[1]}--{closest[2]} at {closest[0]:.4f}"
    )


def _cmd_mst(config: RunConfig) -> None:
    _, processed, _, _ = _prepare(config)
    out = config.output_dir
    m = genre_graph.distance_matrix(_genre_vectors(processed))
    tree = genre_graph.minimum_spanning_tree(m)
    network = genre_graph.complete_graph(m)
    _write_text(out / "mst.dot", genre_graph.export_dot(tree, m))
    _write_text(out / "network.dot", genre_graph.export_dot(network, m))
    total = sum(w for _, _, w in tree.edges)
    print(
        f"mst: {len(tree.edges)} edges, total weight {total:.4f}; "
        f"DOT files in {out}"
    )


def _str_list(value) -> bool:
    return isinstance(value, list) and set(map(type, value)) <= {str}


def _str_pairs(value) -> bool:
    return (
        isinstance(value, list)
        and set(map(type, value)) <= {list}
        and set(map(len, value)) <= {2}
        and _str_list(list(chain.from_iterable(value)))
    )


# what each entry of the preprocessing state stored in a model must hold
_STATE_CHECKS = {
    "gamma": lambda v: type(v) in (int, float),
    "punctuation": lambda v: isinstance(v, str),
    "stopwords": _str_list,
    "concat_map": _str_pairs,
    "lowered_words": _str_list,
}


def _stored_pipeline(
    state, path: Path
) -> tuple[preprocess.PreprocessConfig, frozenset[str]]:
    """The preprocessing configuration and lowered words a model was trained
    with, from the state stored in its file."""
    if state is None:
        raise ModelFormatError(
            "model file lacks the stored preprocessing state; "
            "re-train with 'lexpalo train'"
        )
    if not isinstance(state, dict):
        raise ModelFormatError(f"model file {path} has a malformed preprocess")
    bad = [k for k, ok in _STATE_CHECKS.items() if k not in state or not ok(state[k])]
    if bad:
        raise ModelFormatError(
            f"model file {path} has a missing or malformed preprocess "
            f"{', '.join(bad)}"
        )
    try:
        pconfig = preprocess.PreprocessConfig(
            gamma=state["gamma"],
            concat_map=tuple((p, j) for p, j in state["concat_map"]),
            stopwords=frozenset(state["stopwords"]),
            punctuation=frozenset(state["punctuation"]),
        )
    except ValueError as exc:
        raise ModelFormatError(f"model file {path}: {exc}") from exc
    return pconfig, frozenset(state["lowered_words"])


def _cmd_classify(config: RunConfig) -> None:
    model, state = mnb.load_model(config.model)
    pconfig, lowered = _stored_pipeline(state, config.model)
    if config.text is not None:
        text = config.text
    else:
        text = read_text(config.file, "text file")
    tokens = preprocess.filter_tokens(
        preprocess.apply_concat_map(text, pconfig), pconfig, lowered
    )
    result = mnb.score(model, tfidf_row(tokens, model.vocab))
    print(result.predicted)
    if config.scores:
        for palo in sorted(result.scores, key=lambda p: (-result.scores[p], p)):
            print(f"{palo}\t{result.scores[palo]!r}")


_COMMANDS = {
    "stats": _cmd_stats,
    "train": _cmd_train,
    "sweep-alpha": _cmd_sweep_alpha,
    "essential": _cmd_essential,
    "distances": _cmd_distances,
    "mst": _cmd_mst,
    "classify": _cmd_classify,
}


def run(command: str, config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        _COMMANDS[command](config)
    except LexpaloError as exc:
        print(f"lexpalo {command}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"lexpalo {command}: error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    options = vars(parser.parse_args(argv))
    command = options.pop("command")
    try:
        config = RunConfig(**options, threads=_threads_from_env())
    except ValueError as exc:
        parser.error(str(exc))
    return run(command, config)


if __name__ == "__main__":
    sys.exit(main())
