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
byte-identical outputs. ``LEXPALO_THREADS`` caps worker processes for
``train`` and ``sweep-alpha``, as does the number of CPUs the process may
run on (its affinity mask, or ``os.cpu_count()`` where the platform has
none; results depend on neither); ``essential`` always runs its rounds in
one process.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path

# experiments, which imports SciPy, is imported by the round commands alone
from . import __version__, genre_graph, lexstats, mnb, preprocess
from .corpus_io import (
    SplitSpec,
    atomic_write,
    filter_top_palos,
    load_corpus,
    read_text,
    token_ids,
)
from .errors import AlphaNonPositiveError, CorpusIoError, FormatError, LexpaloError
from .seeding import derive_seed
from .vectorize import genre_vectors, tfidf_row

THREADS_ENV_VAR = "LEXPALO_THREADS"


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
    epsilon: float | None = None  # None: experiments.DEFAULT_EPSILON
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
        sp.add_argument("--train-fraction", type=float)
        sp.add_argument("--runs", type=int,
                        help="number of seeded train/validation rounds")

    def smoothed_training_opts(sp):  # the commands that fit at one alpha
        training_opts(sp)
        sp.add_argument("--alpha", type=float,
                        help="additive smoothing parameter (> 0)")

    sp = command("stats", "lexical statistics reports")
    corpus_opts(sp)
    sp.add_argument("--sttr-windows", type=int,
                    help="number of sampled windows per palo "
                    f"(1 to {lexstats.STTR_MAX_WINDOWS})")

    sp = command("train", "repeated trainings + saved model")
    corpus_opts(sp)
    smoothed_training_opts(sp)

    sp = command("sweep-alpha", "accuracy across the alpha grid")
    corpus_opts(sp)
    training_opts(sp)
    sp.add_argument("--grid-step", type=float)

    sp = command("essential", "per-palo essential word lists")
    corpus_opts(sp)
    smoothed_training_opts(sp)
    sp.add_argument("--epsilon", type=float,
                    help="relative tolerance for the smoothing floor")

    sp = command("distances", "inter-genre distances + dendrogram")
    corpus_opts(sp)
    sp.add_argument("--linkage", choices=genre_graph.LINKAGES)

    sp = command("mst", "genre MST and network as DOT files")
    corpus_opts(sp)

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
# report rendering and writing

def _atomic_write(path: Path, text: str) -> None:
    """Write one report via temp-file + rename."""
    atomic_write(path, text)


def _csv(header: list[str], rows) -> str:
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return fh.getvalue()


def _matrix_csv(corner: str, labels, matrix) -> str:
    return _csv([corner] + list(labels),
                [[lab] + [float(v) for v in matrix[i]] for i, lab in enumerate(labels)])


def _essential_file_names(palos) -> dict[str, str]:
    """Each palo's essential-list file; FormatError when two palos share one."""
    owners = {}
    for palo in sorted(palos):
        safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in palo)
        name = f"essential_{safe}.txt"
        if owners.setdefault(name, palo) != palo:
            raise FormatError(f"palos {owners[name]!r} and {palo!r} both write {name}")
    return {palo: name for name, palo in owners.items()}


# ---------------------------------------------------------------------------
# shared pipeline steps

def _check_options(command: str, config: RunConfig) -> None:
    """Reject bad option values before the corpus is read."""
    if config.min_lyrics < 1:
        raise ValueError(f"--min-lyrics must be >= 1, got {config.min_lyrics}")
    if not 1 <= config.sttr_windows <= lexstats.STTR_MAX_WINDOWS:
        raise ValueError(
            f"--sttr-windows must lie in [1, {lexstats.STTR_MAX_WINDOWS}], "
            f"got {config.sttr_windows}"
        )
    if command in ("train", "sweep-alpha", "essential"):
        from . import experiments

        least = experiments.ESSENTIAL_MIN_RUNS if command == "essential" else 1
        if not least <= config.runs <= experiments.MAX_RUNS:
            raise ValueError(
                f"--runs must lie in [{least}, {experiments.MAX_RUNS}], got {config.runs}"
            )
        SplitSpec(train_fraction=config.train_fraction)
        # alpha * |V| is checked once the vocabulary is known
        if command != "sweep-alpha" and not 0 < config.alpha < float("inf"):
            raise AlphaNonPositiveError(f"alpha must be finite and > 0, got {config.alpha}")
    if command == "sweep-alpha":
        experiments.alpha_grid(config.grid_step)
    if command == "essential" and config.epsilon is not None:
        experiments.check_epsilon(config.epsilon)


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
    """load -> filter -> preprocess; returns (raw, processed, pipeline)."""
    pconfig = _preprocess_config(config)
    raw = load_corpus(config.corpus, config.format)
    filtered = filter_top_palos(raw, config.min_lyrics)
    return raw, *preprocess.preprocess_with_decisions(filtered, pconfig)


# ---------------------------------------------------------------------------
# report builders: (config, raw, processed, pipeline) -> ({file: text}, summary)

def _stats(config: RunConfig, raw, processed, pipeline):
    # Power laws describe the corpus as loaded (unfiltered, raw text).
    tok = token_ids(raw)
    ranked = lexstats.ranked_frequencies(tok)
    zipf = lexstats.zipf_fit(ranked)
    heaps_points, heaps_fit = lexstats.heaps_curve(
        tok, seed=derive_seed(config.seed, "heaps")
    )

    tok = token_ids(processed)
    profile_rows, sttr_rows = lexstats.profile_and_sttr_rows(
        tok, config.sttr_windows, config.seed
    )
    reports = {"profile.csv": _csv(["palo", "L", "V", "TTR"], profile_rows)}
    reports["sttr.csv"] = _csv(
        ["palo", "mean", "stderr", "window_length", "n_windows"], sttr_rows
    )

    hapax = lexstats.hapax_report(tok)
    palo_of = {rec.id: rec.palo for rec in processed.records}
    reports["hapax.csv"] = _csv(
        ["song_id", "palo", "r_h"],
        [[sid, palo_of[sid], ratio] for sid, ratio in hapax.per_song])
    reports["hapax_unique.csv"] = _csv(
        ["palo", "unique_types"],
        [[p, len(hapax.per_palo_unique[p])] for p in sorted(hapax.per_palo_unique)])

    reports["zipf.csv"] = _csv(
        ["rank", "freq"],
        [[rank, freq] for rank, (_, freq) in enumerate(ranked, start=1)])
    reports["heaps.csv"] = _csv(["L", "V"], [list(p) for p in heaps_points])
    reports["powerlaw.csv"] = _csv(
        ["curve", "exponent", "intercept", "r_squared", "range_lo", "range_hi"],
        [[name, fit.exponent, fit.intercept, fit.r_squared, *fit.fit_range]
         for name, fit in (("zipf", zipf), ("heaps", heaps_fit))],
    )
    return reports, (
        f"stats: {len(processed)} lyrics, {len(processed.palos)} palos; "
        f"zipf exponent {zipf.exponent:.4f}, heaps exponent "
        f"{heaps_fit.exponent:.4f}; reports in {config.output_dir}"
    )


def _train(config: RunConfig, raw, processed, pipeline):
    from . import experiments

    if "__global__" in processed.palo_index:
        raise FormatError("palo '__global__' is the label of the global accuracy rows")
    split = SplitSpec(train_fraction=config.train_fraction, seed=config.seed)
    # the rounds, and one model over the whole corpus for later classification
    runs, model = experiments.train_and_fit(
        processed, config.alpha, config.runs, split, threads=config.threads
    )
    report = experiments.aggregate(runs)

    accuracy_rows = []
    for i, run in enumerate(runs):
        for palo in report.classes:
            accuracy_rows.append([i, run.seed, palo, run.per_class_accuracy[palo]])
        accuracy_rows.append([i, run.seed, "__global__", run.global_accuracy])
    reports = {
        "accuracy.csv": _csv(["run", "seed", "palo", "accuracy"], accuracy_rows),
        "confusion_mean.csv": _matrix_csv("true", report.classes, report.mean_confusion),
        "confusion_only.csv": _matrix_csv("true", report.classes, report.confusion_only),
        "model.json": model.to_json(pipeline.to_dict()),
    }
    return reports, (
        f"train: {config.runs} runs at alpha={config.alpha}; mean global "
        f"accuracy {report.mean_global_accuracy:.4f}; model in "
        f"{config.output_dir / 'model.json'}"
    )


def _sweep_alpha(config: RunConfig, raw, processed, pipeline):
    from . import experiments

    split = SplitSpec(train_fraction=config.train_fraction, seed=config.seed)
    result = experiments.alpha_sweep(
        processed, config.grid_step, config.runs, split, threads=config.threads
    )
    reports = {"alpha_sweep.csv": _csv(
        ["alpha", "mean_accuracy"],
        [[a, m] for a, m in zip(result.grid, result.mean_accuracy)])}
    best_mean = result.mean_accuracy[result.grid.index(result.best_alpha)]
    return reports, (
        f"sweep-alpha: best alpha {result.best_alpha} "
        f"(mean accuracy {best_mean:.4f} over {result.n_runs} runs)"
    )


def _essential(config: RunConfig, raw, processed, pipeline):
    from . import experiments

    names = _essential_file_names(processed.palos)
    split = SplitSpec(train_fraction=config.train_fraction, seed=config.seed)
    epsilon = experiments.DEFAULT_EPSILON if config.epsilon is None else config.epsilon
    report = experiments.essential_words(
        processed, config.alpha, config.runs, split, epsilon=epsilon
    )
    palos = sorted(report.per_palo)
    reports = {names[p]: "".join(w + "\n" for w in report.per_palo[p]) for p in palos}
    reports["essential_counts.csv"] = _csv(
        ["palo", "count", "normalized"],
        [[p, report.counts[p], report.normalized[p]] for p in palos],
    )
    sizes = ", ".join(f"{p}={report.counts[p]}" for p in palos)
    return reports, f"essential: {report.n_runs} runs at alpha={config.alpha}; {sizes}"


def _distances(config: RunConfig, raw, processed, pipeline):
    m = genre_graph.distance_matrix(genre_vectors(processed))
    reports = {"distances.csv": _matrix_csv("palo", m.labels, m.values)}
    dendro = genre_graph.hierarchical_cluster(m, linkage=config.linkage)
    reports["dendrogram.json"] = json.dumps(
        {
            "labels": list(dendro.labels),
            "linkage": dendro.linkage,
            "merges": [list(merge) for merge in dendro.merges],
        },
        ensure_ascii=False,
    ) + "\n"
    closest = min(
        ((m.values[i, j], m.labels[i], m.labels[j])
         for i in range(len(m.labels)) for j in range(i + 1, len(m.labels))),
    )
    return reports, (
        f"distances: {len(m.labels)} palos; closest pair "
        f"{closest[1]}--{closest[2]} at {closest[0]:.4f}"
    )


def _mst(config: RunConfig, raw, processed, pipeline):
    m = genre_graph.distance_matrix(genre_vectors(processed))
    tree = genre_graph.minimum_spanning_tree(m)
    network = genre_graph.complete_graph(m)
    reports = {"mst.dot": genre_graph.export_dot(tree, m),
               "network.dot": genre_graph.export_dot(network, m)}
    total = sum(w for _, _, w in tree.edges)
    return reports, (
        f"mst: {len(tree.edges)} edges, total weight {total:.4f}; "
        f"DOT files in {config.output_dir}"
    )


def _classify(config: RunConfig) -> str:
    """The printed lines: the label, then the scores if asked for."""
    model, state = mnb.load_model(config.model)
    pipeline = preprocess.FrozenPipeline.from_dict(state, config.model)
    if config.text is not None:
        text = config.text
    else:
        text = read_text(config.file, "text file")
    result = mnb.score(model, tfidf_row(pipeline.apply(text), model.vocab))
    lines = [result.predicted]
    if config.scores:
        for palo in sorted(result.scores, key=lambda p: (-result.scores[p], p)):
            lines.append(f"{palo}\t{result.scores[palo]!r}")
    return "\n".join(lines)


_BUILDERS = {
    "stats": _stats,
    "train": _train,
    "sweep-alpha": _sweep_alpha,
    "essential": _essential,
    "distances": _distances,
    "mst": _mst,
}


def run(command: str, config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit code. A command
    builds all its reports before it writes any."""
    try:
        _check_options(command, config)
        if command == "classify":
            summary = _classify(config)
        else:
            reports, summary = _BUILDERS[command](config, *_prepare(config))
            out = config.output_dir
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise CorpusIoError(f"cannot create {out}: {exc}") from exc
            for name, text in reports.items():
                _atomic_write(out / name, text)
        print(summary)
    except (LexpaloError, ValueError) as exc:
        print(f"lexpalo {command}: error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, LexpaloError) else 2
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
