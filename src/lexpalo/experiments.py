"""Repeated-training experiments over a preprocessed corpus.

Every experiment derives its per-run seeds from one master seed through
``derive_seed(master, "run", i)``, so a (corpus, parameters, master seed)
triple fully determines all reports, independent of parallelism. Runs may be
executed in worker processes; results are always merged in run order.

A single run: stratified 85/15-style split -> vocabulary and TF-IDF from the
training side only -> naive-Bayes fit (documents that lost all tokens in
preprocessing are excluded from the training side) -> every validation
document scored, including empty ones (scored by priors alone).

Each call tokenizes the corpus once, into integer counts and term
frequencies (count / document length) over the sorted vocabulary of the
whole corpus, and every run slices its documents' rows out of them: the
columns its training rows use are the run's vocabulary in sorted order, so
its weights and masses are those :mod:`vectorize` and :mod:`mnb` compute
from text.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .corpus_io import Corpus, SplitSpec, split_positions
from .errors import EmptyCorpusError, InconsistentClassesError, NoThresholdError
from .mnb import check_alpha
from .seeding import derive_seed

DEFAULT_EPSILON = 1e-9


@dataclass(frozen=True)
class TrainingResult:
    """One train/validation round: the split seed, confusion matrix over
    ``classes`` (rows true, columns predicted, raw counts) and accuracies."""

    seed: int
    classes: tuple[str, ...]
    confusion: np.ndarray
    per_class_accuracy: dict[str, float]
    global_accuracy: float


@dataclass(frozen=True)
class AggregateReport:
    """Accuracy distribution and confusion structure over many runs.

    mean_confusion is the mean of per-run row-normalized confusion matrices
    (so its diagonal equals mean_accuracy); confusion_only zeroes the
    diagonal and renormalizes each row over the off-diagonal mass, leaving
    all-zero rows (palos never confused) listed in zero_confusion_palos.
    """

    n_runs: int
    classes: tuple[str, ...]
    mean_accuracy: dict[str, float]
    accuracy_samples: dict[str, tuple[float, ...]]
    mean_global_accuracy: float
    mean_confusion: np.ndarray
    confusion_only: np.ndarray
    zero_confusion_palos: tuple[str, ...]


@dataclass(frozen=True)
class AlphaSweepResult:
    """Mean validation accuracy per smoothing value over a fixed set of
    seeded splits; best_alpha is the grid argmax (ties: smallest alpha)."""

    grid: tuple[float, ...]
    mean_accuracy: tuple[float, ...]
    best_alpha: float
    n_runs: int


@dataclass(frozen=True)
class EssentialWordReport:
    """Per-palo essential vocabularies.

    per_palo lists each palo's essential words by descending mean P(w|palo)
    across runs; counts/normalized give list sizes and sizes divided by the
    palo's type count; threshold_rank is the 0-based rank of the best
    ever-at-floor word (essential words are exactly those ranked above it).
    """

    per_palo: dict[str, tuple[str, ...]]
    counts: dict[str, int]
    normalized: dict[str, float]
    threshold_rank: dict[str, int]
    n_runs: int


@dataclass(frozen=True)
class _Encoding:
    """A corpus as integer token counts and term frequencies over its sorted
    vocabulary."""

    corpus: Corpus
    counts: sp.csr_matrix  # documents x words
    tf: sp.csr_matrix  # counts / lengths, with the structure of ``counts``
    lengths: np.ndarray  # tokens per document
    classes: tuple[str, ...]  # sorted palos
    labels: np.ndarray  # position in ``classes`` per document
    words: tuple[str, ...]


class _FirstSeenIds(dict):
    """Word -> id in order of first occurrence, assigned on lookup."""

    def __missing__(self, word):
        self[word] = len(self)
        return len(self) - 1


def _encode(corpus: Corpus) -> _Encoding:
    lengths = np.empty(len(corpus.records), dtype=np.int64)

    def tokens():
        for i, rec in enumerate(corpus.records):
            doc = rec.text.split()
            lengths[i] = len(doc)
            yield doc

    ids = _FirstSeenIds()
    seen = np.fromiter(map(ids.__getitem__, chain.from_iterable(tokens())), np.int64)
    words = tuple(sorted(ids))
    position = {w: j for j, w in enumerate(words)}
    n_docs, n_words = len(lengths), len(words)
    # one (document, word) key per token; sorted, each run of equal keys is
    # one entry of the count matrix, in row-major order
    key = np.repeat(np.arange(n_docs) * n_words, lengths)
    key += np.fromiter(map(position.__getitem__, ids), np.int64, len(ids))[seen]
    key.sort()
    first = np.flatnonzero(np.diff(key, prepend=-1))
    entries = key[first]
    indptr = np.searchsorted(entries, np.arange(n_docs + 1) * n_words)
    row = np.repeat(np.arange(n_docs), np.diff(indptr))
    counts = sp.csr_matrix(
        (np.diff(first, append=len(key)), entries - row * n_words, indptr),
        shape=(n_docs, n_words),
    )
    # ``len`` counts every token, as :func:`vectorize.tfidf` does
    tf = sp.csr_matrix(
        (counts.data / lengths[row], counts.indices, counts.indptr),
        shape=counts.shape,
    )
    classes = tuple(sorted(corpus.palo_index))
    class_of = {palo: k for k, palo in enumerate(classes)}
    labels = np.array([class_of[rec.palo] for rec in corpus.records])
    return _Encoding(corpus, counts, tf, lengths, classes, labels, words)


def _rows(tf: sp.csr_matrix) -> np.ndarray:
    """The row of each stored entry."""
    return np.repeat(np.arange(tf.shape[0]), np.diff(tf.indptr))


def _tfidf(row, col, tf, idf):
    """TF-IDF weights of (row, run-vocabulary column, tf) entries:
    tf * idf, L2-normalized per row."""
    weight = idf[col]
    weight *= tf
    norms = np.sqrt(np.bincount(row, weights=weight * weight))
    weight /= norms[row]
    return weight


@dataclass(frozen=True)
class _Fit:
    """One run's training side, fitted up to the class masses."""

    position: np.ndarray  # per encoding word, its run-vocabulary place or -1
    idf: np.ndarray
    classes: np.ndarray  # encoding classes that have training documents
    mass: np.ndarray  # those classes x run vocabulary, summed TF-IDF
    log_prior: np.ndarray
    validation: np.ndarray  # validation document positions


def _fit_split(enc: _Encoding, spec: SplitSpec) -> _Fit:
    """Split, vocabulary, TF-IDF and class masses of one run."""
    train, validation = map(np.asarray, split_positions(enc.corpus, spec))
    train = train[enc.lengths[train] > 0]
    if not len(train):
        raise EmptyCorpusError(f"no training document of seed {spec.seed} has tokens")
    tf = enc.tf[train]
    df = np.bincount(tf.indices, minlength=len(enc.words))
    in_vocabulary = df > 0
    position = np.where(in_vocabulary, np.cumsum(in_vocabulary) - 1, -1)
    idf = 1.0 + np.log(len(train) / df[in_vocabulary])
    # every column a training row uses has df > 0, so none is dropped
    row, col = _rows(tf), position[tf.indices]
    weight = _tfidf(row, col, tf.data, idf)
    # A palo without training documents gets no class, so no -inf prior.
    labels = enc.labels[train]
    doc_counts = np.bincount(labels, minlength=len(enc.classes))
    classes = np.flatnonzero(doc_counts)
    cell = (np.searchsorted(classes, labels) * len(idf))[row]
    cell += col
    mass = np.bincount(cell, weights=weight, minlength=len(classes) * len(idf))
    mass = mass.reshape(len(classes), len(idf))
    log_prior = np.log(doc_counts[classes] / len(train))
    return _Fit(position, idf, classes, mass, log_prior, validation)


def _predictor(enc: _Encoding, fit: _Fit):
    """The validation documents' classes, and ``predict(alpha)``: the class
    of each document under smoothing alpha, the argmax of ln P(C) +
    sum_w tfidf(w, d) ln P(w|C) (see :mod:`mnb`) over the words it uses."""
    docs = fit.validation
    tf = enc.tf[docs]
    row, col = _rows(tf), fit.position[tf.indices]
    # validation rows may use words outside the run's vocabulary
    keep = col >= 0
    row, col = row[keep], col[keep]
    weight = _tfidf(row, col, tf.data[keep], fit.idf)
    # the run-vocabulary words the documents use, in order, and each
    # entry's place among them
    used = np.zeros(len(fit.idf), dtype=bool)
    used[col] = True
    col = (np.cumsum(used) - 1)[col]
    used = np.flatnonzero(used)
    indptr = np.r_[0, np.cumsum(np.bincount(row, minlength=len(docs)))]
    rows = sp.csr_matrix((weight, col, indptr), shape=(len(docs), len(used)))
    # used words x classes, the layout ``rows @`` multiplies without a copy
    mass = np.ascontiguousarray(fit.mass.T[used])
    mass_total = fit.mass.sum(axis=1)

    def predict(alpha: float) -> np.ndarray:
        log_table = alpha + mass
        np.log(log_table, out=log_table)
        log_table -= np.log(alpha * len(fit.idf) + mass_total)
        scores = rows @ log_table
        scores += fit.log_prior
        return fit.classes[np.argmax(scores, axis=1)]

    return enc.labels[docs], predict


def _training_run(enc: _Encoding, job) -> TrainingResult:
    alpha, spec = job
    truth, predict = _predictor(enc, _fit_split(enc, spec))
    k = len(enc.classes)
    confusion = np.bincount(truth * k + predict(alpha), minlength=k * k)
    confusion = confusion.reshape(k, k)
    accuracy = confusion.diagonal() / confusion.sum(axis=1)
    return TrainingResult(
        seed=spec.seed,
        classes=enc.classes,
        confusion=confusion,
        per_class_accuracy=dict(zip(enc.classes, map(float, accuracy))),
        global_accuracy=float(confusion.trace() / confusion.sum()),
    )


def _sweep_run(enc: _Encoding, job) -> np.ndarray:
    grid, spec = job
    truth, predict = _predictor(enc, _fit_split(enc, spec))
    hits = [np.count_nonzero(predict(alpha) == truth) for alpha in grid]
    return np.array(hits) / len(truth)


_worker_encoding: _Encoding | None = None  # set in pool workers by _init_worker


def _init_worker(enc: _Encoding) -> None:
    global _worker_encoding
    _worker_encoding = enc


def _in_worker(task):
    run, job = task
    return run(_worker_encoding, job)


def _map_runs(enc: _Encoding, run, jobs, threads: int) -> list:
    """``run(enc, job)`` per job, in order; worker processes (threads > 1)
    receive the encoding once, at start-up."""
    if threads <= 1:
        return [run(enc, job) for job in jobs]
    with ProcessPoolExecutor(
        threads, initializer=_init_worker, initargs=(enc,)
    ) as pool:
        return list(pool.map(_in_worker, [(run, job) for job in jobs]))


def _run_specs(split: SplitSpec, n_runs: int) -> list[SplitSpec]:
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    return [
        SplitSpec(split.train_fraction, derive_seed(split.seed, "run", i))
        for i in range(n_runs)
    ]


def run_training(corpus: Corpus, alpha: float, split: SplitSpec) -> TrainingResult:
    """Run one seeded split + fit + validation round."""
    return _trainings(corpus, alpha, [split], threads=1)[0]


def run_trainings(
    corpus: Corpus,
    alpha: float,
    n_runs: int,
    split: SplitSpec,
    threads: int = 1,
) -> list[TrainingResult]:
    """Run ``n_runs`` independent rounds with per-run derived seeds.

    With threads > 1 the rounds execute in worker processes; results are
    identical to the sequential order either way.
    """
    return _trainings(corpus, alpha, _run_specs(split, n_runs), threads)


def _trainings(corpus: Corpus, alpha: float, specs, threads: int) -> list:
    enc = _encode(corpus)
    check_alpha(alpha, len(enc.words))
    jobs = [(alpha, spec) for spec in specs]
    return _map_runs(enc, _training_run, jobs, threads)


def aggregate(runs: Sequence[TrainingResult]) -> AggregateReport:
    """Combine per-run results into accuracy and confusion reports."""
    if not runs:
        raise ValueError("no runs to aggregate")
    classes = runs[0].classes
    for r in runs[1:]:
        if r.classes != classes:
            raise InconsistentClassesError(
                f"runs disagree on classes: {r.classes} vs {classes}"
            )
    samples = {
        c: tuple(r.per_class_accuracy[c] for r in runs) for c in classes
    }
    mean_accuracy = {c: float(np.mean(samples[c])) for c in classes}
    normalized_rows = [
        r.confusion / r.confusion.sum(axis=1, keepdims=True) for r in runs
    ]
    mean_confusion = np.mean(normalized_rows, axis=0)

    off_diag = mean_confusion.copy()
    np.fill_diagonal(off_diag, 0.0)
    confusion_only = np.zeros_like(off_diag)
    zero_palos = []
    for k, c in enumerate(classes):
        mass = off_diag[k].sum()
        if mass > 0.0:
            confusion_only[k] = off_diag[k] / mass
        else:
            zero_palos.append(c)
    return AggregateReport(
        n_runs=len(runs),
        classes=classes,
        mean_accuracy=mean_accuracy,
        accuracy_samples=samples,
        mean_global_accuracy=float(np.mean([r.global_accuracy for r in runs])),
        mean_confusion=mean_confusion,
        confusion_only=confusion_only,
        zero_confusion_palos=tuple(zero_palos),
    )


def alpha_grid(grid_step: float) -> tuple[float, ...]:
    """The sweep grid {grid_step, 2*grid_step, ..., <= 1}."""
    if not 0.0 < grid_step <= 1.0:
        raise ValueError(f"grid_step must lie in (0, 1], got {grid_step}")
    n_steps = int(1.0 / grid_step + 1e-9)
    return tuple(round(i * grid_step, 12) for i in range(1, n_steps + 1))


def alpha_sweep(
    corpus: Corpus,
    grid_step: float,
    n_runs: int,
    split: SplitSpec,
    threads: int = 1,
) -> AlphaSweepResult:
    """Mean validation accuracy across the alpha grid.

    The same n_runs seeded splits evaluate every grid point (vocabulary,
    TF-IDF and class masses are computed once per split and re-smoothed per
    alpha), so curves across alphas are comparable run by run.
    """
    specs = _run_specs(split, n_runs)
    grid = alpha_grid(grid_step)
    jobs = [(grid, spec) for spec in specs]
    per_run = _map_runs(_encode(corpus), _sweep_run, jobs, threads)
    mean_accuracy = np.mean(per_run, axis=0)
    best_alpha = grid[int(np.argmax(mean_accuracy))]
    return AlphaSweepResult(
        grid=grid,
        mean_accuracy=tuple(float(a) for a in mean_accuracy),
        best_alpha=best_alpha,
        n_runs=n_runs,
    )


def essential_words(
    corpus: Corpus,
    alpha: float,
    n_runs: int,
    split: SplitSpec,
    epsilon: float = DEFAULT_EPSILON,
) -> EssentialWordReport:
    """Extract per-palo essential vocabularies over repeated trainings.

    Per run and palo, every vocabulary word whose P(w|palo) lies within
    relative ``epsilon`` of the run's minimum is flagged (at the smoothing
    floor: the palo never uses it). Words are then ranked by mean P(w|palo)
    across runs — a word absent from a run's vocabulary contributes that
    run's floor alpha/denominator — and the essential words are those ranked
    strictly above the best-ranked flagged word. Mean ties rank
    lexicographically.
    """
    if n_runs < 2:
        raise ValueError(f"n_runs must be >= 2, got {n_runs}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    enc = _encode(corpus)
    check_alpha(alpha, len(enc.words))
    n_classes, n_words = len(enc.classes), len(enc.words)
    # words x palos, so that a run adds to the rows of its vocabulary
    deltas = np.zeros((n_words, n_classes))  # sum of (P - run floor), present runs
    total_floor = np.zeros(n_classes)  # sum of run floors, all runs
    flagged = np.zeros((n_words, n_classes), dtype=bool)
    seen = np.zeros(n_words, dtype=bool)

    for spec in _run_specs(split, n_runs):
        fit = _fit_split(enc, spec)
        cols = np.flatnonzero(fit.position >= 0)
        mass = np.zeros((n_classes, len(cols)))
        mass[fit.classes] = fit.mass
        denom = alpha * len(cols) + mass.sum(axis=1)
        floor = alpha / denom
        probs = (alpha + mass) / denom[:, None]
        total_floor += floor
        deltas[cols] += probs.T - floor
        flagged[cols] |= (probs <= probs.min(axis=1, keepdims=True) * (1 + epsilon)).T
        seen[cols] = True

    # words ranked by descending mean P(w|palo), ties in word order
    present = np.flatnonzero(seen)
    means = (deltas[present].T + total_floor[:, None]) / n_runs
    n_types = [
        int(np.count_nonzero(enc.counts[enc.labels == k].getnnz(axis=0)))
        for k in range(n_classes)
    ]

    per_palo, counts, normalized = {}, {}, {}
    for k, cls in enumerate(enc.classes):
        order = present[np.lexsort((present, -means[k]))]
        flagged_ranks = np.flatnonzero(flagged[order, k])
        if not len(flagged_ranks):
            raise NoThresholdError(
                f"no word was ever flagged at the floor for palo {cls!r}"
            )
        threshold = int(flagged_ranks[0])
        per_palo[cls] = tuple(enc.words[j] for j in order[:threshold])
        counts[cls] = threshold
        normalized[cls] = threshold / n_types[k] if n_types[k] else 0.0
    return EssentialWordReport(
        per_palo=per_palo,
        counts=counts,
        normalized=normalized,
        threshold_rank=dict(counts),
        n_runs=n_runs,
    )
