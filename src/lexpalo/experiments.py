"""Repeated-training experiments over a preprocessed corpus.

Every experiment derives its per-run seeds from one master seed through
``derive_seed(master, "run", i)``, so a (corpus, parameters, master seed)
triple fully determines all reports, independent of parallelism. Runs may be
executed in worker processes; results are always merged in run order.

A single run: stratified 85/15-style split -> vocabulary and TF-IDF from the
training side only -> naive-Bayes fit (documents that lost all tokens in
preprocessing are excluded from the training side) -> every validation
document scored, including empty ones (scored by priors alone).

Each call encodes the corpus once, by :func:`vectorize.encode`: an entry
per (document, word) pair over the sorted vocabulary of the whole corpus,
with the tables every run reads (document offsets, each entry's word, term
frequency (count / document length) and class cell, and each word's
document count). A run draws only its validation side. Its vocabulary, in
sorted order, is the words whose document count less the validation
documents' is positive; its TF-IDF weights are computed for every entry,
the validation documents' as exactly +0.0, and one bincount over the class
cells sums each class's masses in document order. A row's norm adds its
squares in word (column) order from 0.0, as :mod:`vectorize` defines it. So
its weights and masses are those :mod:`vectorize` and :mod:`mnb` compute
from the text of its training documents, bit for bit. The per-entry weights
and squares go into ``Entries.buffers``, which each process makes once and
every run refills. :func:`train_and_fit` fits ``lexpalo train``'s model
from the same encoding, as a run that holds out no document.

The alpha sweep scores each validation document at a few Chebyshev nodes
in ln alpha and interpolates to every alpha the margins of its true class
over each rival. Where the least margin lies beyond twice a bound on the
error (:func:`_sweep_margins`), its sign decides the hit; every other pair,
exact ties included, is rescored as a training round scores it, so the hits
are those of scoring every alpha in float64.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .corpus_io import Corpus, SplitSpec, split_positions
from .errors import EmptyCorpusError, InconsistentClassesError, NoThresholdError
from .mnb import MnbModel, check_alpha, fit_from_masses
from .seeding import derive_seed
from .vectorize import Entries, Vocabulary, encode

DEFAULT_EPSILON = 1e-9
# A sweep grid holds at most this many alphas, so each is at least 1e-5.
MAX_GRID_ALPHAS = 100_000
# The most rounds one call runs: 200 times the paper's 500.
MAX_RUNS = 100_000


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
    all-zero rows for palos never confused.
    """

    n_runs: int
    classes: tuple[str, ...]
    mean_accuracy: dict[str, float]
    accuracy_samples: dict[str, tuple[float, ...]]
    mean_global_accuracy: float
    mean_confusion: np.ndarray
    confusion_only: np.ndarray


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
    palo's type count.
    """

    per_palo: dict[str, tuple[str, ...]]
    counts: dict[str, int]
    normalized: dict[str, float]
    n_runs: int


def _entries(indptr: np.ndarray, docs: np.ndarray):
    """The stored entries of rows ``docs`` of a CSR matrix with ``indptr``,
    in order, and the indptr of those rows as a matrix of their own."""
    lengths = indptr[docs + 1] - indptr[docs]
    sub = np.r_[0, np.cumsum(lengths)]
    return np.arange(sub[-1]) + np.repeat(indptr[docs] - sub[:-1], lengths), sub


@dataclass(frozen=True)
class _Fit:
    """One run's training side, fitted up to the class masses."""

    in_vocabulary: np.ndarray  # per encoding word, in the run's vocabulary
    size: int  # words in the run's vocabulary
    idf: np.ndarray  # per encoding word, 0.0 outside the vocabulary
    classes: np.ndarray  # encoding classes that have training documents
    # every encoding class x every word, summed TF-IDF: 0.0 outside
    # ``classes`` and the vocabulary
    mass: np.ndarray
    totals: np.ndarray  # each of ``classes``' mass summed over the vocabulary
    least: np.ndarray  # each of ``classes``' least mass over the vocabulary
    log_prior: np.ndarray
    validation: np.ndarray  # validation document positions
    norms: np.ndarray  # per validation document, its TF-IDF row's L2 norm
    # the validation documents' entries, in order, and their indptr
    entries: np.ndarray
    indptr: np.ndarray


def _fit_split(enc: Entries, validation: np.ndarray) -> _Fit:
    """Vocabulary, TF-IDF and class masses of one run, which holds out the
    records at the sorted positions ``validation`` (maybe none)."""
    train = enc.lengths > 0
    train[validation] = False
    n_train = np.count_nonzero(train)
    if not n_train:
        raise EmptyCorpusError("no training document of a split has tokens")
    entries, indptr = _entries(enc.indptr, validation)
    df = enc.df - np.bincount(enc.column[entries], minlength=len(enc.words))
    in_vocabulary = df > 0
    idf = np.zeros(len(enc.words))
    idf[in_vocabulary] = 1.0 + np.log(n_train / df[in_vocabulary])
    # tf * idf, L2-normalized per row, in this process's two buffers. A
    # validation row's norm, over its vocabulary words, is kept for
    # _validation_rows; then +inf turns its weights into +0.0, which leave
    # each class cell's sum over the training entries as it is. The product
    # with ones adds each row's squares in column order from 0.0, as
    # vectorize._norms does, and faster. The gathers clip, since a raising
    # take with out= writes to a copy first.
    weight, squares = enc.buffers
    np.take(idf, enc.column, out=weight, mode="clip")
    weight *= enc.tf
    np.multiply(weight, weight, out=squares)
    norms = sp.csr_matrix((squares, enc.word, enc.indptr), (len(enc.lengths), len(idf)))
    norms = np.sqrt(norms @ np.ones(len(idf)))
    validation_norms = norms[validation]
    norms[validation] = np.inf
    weight /= np.take(norms, enc.doc, out=squares, mode="clip")
    n_classes = len(enc.classes)
    mass = np.bincount(enc.cell, weights=weight, minlength=n_classes * len(idf))
    mass = mass.reshape(n_classes, len(idf))
    # A palo without training documents gets no class, so no -inf prior.
    doc_counts = np.bincount(enc.label[train], minlength=n_classes)
    classes = np.flatnonzero(doc_counts)
    # rows kept C-contiguous (``mass[:, in_vocabulary]`` is not), so each
    # sums as the masses over the vocabulary alone do
    vocabulary_mass = mass.compress(in_vocabulary, axis=1)[classes]
    totals, least = vocabulary_mass.sum(axis=1), vocabulary_mass.min(axis=1)
    log_prior = np.log(doc_counts[classes] / n_train)
    return _Fit(in_vocabulary, vocabulary_mass.shape[1], idf, classes, mass, totals, least,
                log_prior, validation, validation_norms, entries, indptr)


def _validation_rows(enc: Entries, fit: _Fit):
    """The validation documents' classes, their TF-IDF rows over the
    run-vocabulary words they use, and those words' class masses (used words
    x classes, the layout ``rows @`` multiplies without a copy)."""
    docs, entries = fit.validation, fit.entries
    word = enc.column[entries]
    # validation rows may use words outside the run's vocabulary
    keep = fit.in_vocabulary[word]
    indptr = np.r_[0, np.cumsum(keep)][fit.indptr]
    entries, word = entries[keep], word[keep]
    weight = fit.idf[word]
    weight *= enc.tf[entries]
    weight /= np.repeat(fit.norms, np.diff(indptr))
    # the words the documents use, in order, and each entry's place among them
    used = np.zeros(len(enc.words), dtype=bool)
    used[word] = True
    col = (np.cumsum(used) - 1)[word]
    used = np.flatnonzero(used)
    rows = sp.csr_matrix((weight, col, indptr), shape=(len(docs), len(used)))
    mass = np.ascontiguousarray(fit.mass[np.ix_(fit.classes, used)].T)
    return enc.label[docs], rows, mass


def _log_denominators(fit: _Fit, alphas) -> np.ndarray:
    """ln(alpha |V| + class mass) per alpha (rows, when ``alphas`` is an
    array) and class."""
    return np.log(np.asarray(alphas)[..., None] * fit.size + fit.totals)


def _scores(fit: _Fit, rows, mass, alpha: float) -> np.ndarray:
    """The class scores (see :mod:`mnb`) under smoothing alpha of the
    validation documents, given the ``rows`` and ``mass`` of :func:`_validation_rows`."""
    log_table = alpha + mass
    np.log(log_table, out=log_table)
    log_table -= _log_denominators(fit, alpha)
    scores = rows @ log_table
    scores += fit.log_prior
    return scores


def _training_run(enc: Entries, alpha: float, spec: SplitSpec) -> TrainingResult:
    fit = _fit_split(enc, split_positions(enc.corpus, spec))
    truth, rows, mass = _validation_rows(enc, fit)
    predicted = fit.classes[np.argmax(_scores(fit, rows, mass, alpha), axis=1)]
    k = len(enc.classes)
    confusion = np.bincount(truth * k + predicted, minlength=k * k)
    confusion = confusion.reshape(k, k)
    accuracy = confusion.diagonal() / confusion.sum(axis=1)
    return TrainingResult(
        seed=spec.seed,
        classes=enc.classes,
        confusion=confusion,
        per_class_accuracy=dict(zip(enc.classes, map(float, accuracy))),
        global_accuracy=float(confusion.trace() / confusion.sum()),
    )


# The sweep's largest interpolation error per unit weight (see _sweep_nodes),
# the size of a block of its interpolated margins, which stays in cache, and
# the alphas per matrix product that fills it: OpenBLAS runs a product this
# small on the calling thread, where one product per block spreads across
# threads and costs many times more.
_INTERPOLATION_TOLERANCE = 2.0**-12
_BLOCK_BYTES = 1_000_000
_GEMM_ROWS = 4


def _sweep_nodes(s: np.ndarray, max_mass: float):
    """Chebyshev points of [min s, max s] at which to score for the grid
    points ``s`` (s = ln alpha) and the error E per unit weight of
    :func:`_sweep_margins` at y = pi - 1/64, with n the least degree whose E
    times 2 + (2/pi) ln(n + 1) (above 1 + the Lebesgue constant) is within
    the tolerance; or ``s`` itself and 0 if those are no fewer."""
    degrees = np.arange(1, min(len(s) - 1, 200))  # alpha_grid needs 45 at most
    if not len(degrees):
        return s, 0.0
    c, h = (s.max() + s.min()) / 2, (s.max() - s.min()) / 2
    y = math.pi - 2.0**-6
    rho, a = y / h + math.hypot(1.0, y / h), math.hypot(h, y)
    spread = math.log((math.exp(c + a) + max_mass) / math.sin(y)) - c + a + y
    log_error = math.log(4 * spread / (rho - 1)) - degrees * math.log(rho)
    lebesgue = np.log(2 + 2 / np.pi * np.log1p(degrees))
    fits = np.flatnonzero(log_error + lebesgue <= math.log(_INTERPOLATION_TOLERANCE))
    if not len(fits):
        return s, 0.0
    n = degrees[fits[0]]
    nodes = np.clip(c + h * np.cos(np.pi * np.arange(n + 1) / n), s.min(), s.max())
    return nodes, math.exp(log_error[fits[0]])


def _interpolation_matrix(nodes: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The Lagrange basis of ``nodes`` at each point of ``s`` (a row each),
    by the second barycentric formula."""
    weights = 1 / (np.subtract.outer(nodes, nodes) + np.eye(len(nodes))).prod(axis=1)
    gaps = np.subtract.outer(s, nodes)
    at_node = gaps == 0
    matrix = weights / np.where(at_node, 1.0, gaps)
    matrix = np.where(at_node.any(axis=1, keepdims=True), at_node, matrix)
    return matrix / matrix.sum(axis=1, keepdims=True)


def _rescore(fit: _Fit, rows, mass, docs, alphas) -> np.ndarray:
    """The class scores of documents ``docs``, each under its own alpha, bit
    for bit as :func:`_scores` computes them: one row per pair, the
    document's entries in order, times each entry's log-probabilities."""
    entry, indptr = _entries(rows.indptr, docs)
    lengths = np.diff(indptr)
    log_table = mass[rows.indices[entry]]
    log_table += np.repeat(alphas, lengths)[:, None]
    np.log(log_table, out=log_table)
    log_table -= np.repeat(_log_denominators(fit, alphas), lengths, axis=0)
    pairs = sp.csr_matrix(
        (rows.data[entry], np.arange(len(entry)), indptr),
        shape=(len(docs), len(entry)),
    )
    scores = pairs @ log_table
    scores += fit.log_prior
    return scores


def _sweep_margins(fit: _Fit, true: np.ndarray, rows, mass, alphas):
    """Per block of alphas: its slice of ``alphas``, each validation
    document's least margin under them, its true class's score less its best
    rival's (``true`` is that class's place in ``fit.classes``), interpolated
    from :func:`_scores` at the nodes of :func:`_sweep_nodes` (alphas x
    documents), and a bound on an interpolated score's distance from
    :func:`_scores` (alphas x documents); a margin's is twice that.

    In s = ln alpha a score is a constant plus sum_j w_j (f(m_j) - f(M/|V|)),
    f(m) = ln(e^s + m), over a document's weights w_j (summing to W), word
    masses m_j, class mass M and vocabulary V: analytic for |Im s| < pi. On
    the Bernstein ellipse of [min s, max s] (centre c, half-width h) with
    semi-minor axis y < pi (parameter rho = y/h + sqrt(1 + y^2/h^2), real
    parts within a = sqrt(h^2 + y^2) of c), e^s + m has a modulus in [r_min,
    r_max] = [e^(c-a) min(1, sin y), e^(c+a) + max m] and an argument
    between 0 and Im s. So the interpolant in n + 1 Chebyshev points lies
    within W E, E = 4 (ln(r_max / r_min) + y) rho^-n / (rho - 1) (Trefethen,
    Approximation Theory and Approximation Practice, Thm 8.2), and the one
    in the nodes used, those points rounded, within (1 + Lambda) W E, Lambda
    their Lebesgue function at the alpha. The bound adds (1 + Lambda) R for
    rounding: with float64 log and exp within 2 ulp, u = 2**-53, n the
    document's stored weights, d the degree, lam, |L| and |s| above |ln(alpha
    + m)|, |ln denominator| and |ln alpha| over grid, nodes and masses, and P
    the priors, :func:`_scores` lies within (n + 4) u W (lam + |L| + 1) + 2 u
    |ln P| of exact; the nodes' exp and the grid's log move the point
    interpolated at by 4 u (|s| + 1), the score by W times that; the
    barycentric formula and its sum add (6 d + 8) u Lambda (W (lam + |L|) +
    |ln P|) (Higham, IMA J. Numer. Anal. 24, 2004), in whatever order the
    matrix product sums the d + 1 terms. R = 2**-44 ((n + 6 d + 16) W (lam +
    |L| + |s| + 2) + 8 |ln P|) holds it all many times over.

    Interpolation is linear, so a margin S_t - S_c interpolates to the
    difference of its two scores' interpolants, within the sum of their
    bounds, twice the bound. Its one subtraction at each node adds u (|S_t| +
    |S_c|), at most 2 u (W (lam + |L|) + |ln P|), which the interpolant
    carries times the Lebesgue constant: inside R's cushion. The least
    margin over the rivals lies within twice the bound of the least of the
    float64 margins, as each margin does of its own.
    """
    s = np.log(alphas)
    max_mass = max(mass.max(initial=0.0), fit.totals.max() / fit.size)
    nodes, error = _sweep_nodes(s, max_mass)
    # nodes x documents x classes, and rivals x documents per node
    node_scores = np.stack([_scores(fit, rows, mass, alpha) for alpha in np.exp(nodes)])
    doc = np.arange(len(true))
    rival = np.arange(len(fit.classes) - 1)[:, None]
    rival = rival + (rival >= true)
    margins = node_scores[:, doc, true][:, None] - node_scores[:, doc, rival]
    weight = np.asarray(rows.sum(axis=1)).ravel()
    lam = max(-s.min(), abs(math.log(alphas.max() + max_mass)))
    log_denom = np.abs(_log_denominators(fit, [alphas.min(), alphas.max()])).max()
    rounding = (np.diff(rows.indptr) + 6 * len(nodes) + 16) * weight
    rounding *= lam + log_denom + np.abs(s).max() + 2
    bound = weight * error + 2.0**-44 * (rounding + 8 * np.abs(fit.log_prior).max())
    block = max(1, _BLOCK_BYTES // margins[0].nbytes)
    # C-ordered: the fancy indexing above leaves the nodes innermost in
    # memory, and each product below reads the margins a node at a time
    margins = np.ascontiguousarray(margins.reshape(len(nodes), -1))
    for start in range(0, len(alphas), block):
        span = slice(start, start + block)
        matrix = _interpolation_matrix(nodes, s[span])
        interpolated = np.empty((len(matrix), margins.shape[1]))
        for row in range(0, len(matrix), _GEMM_ROWS):
            gemm = slice(row, row + _GEMM_ROWS)
            np.matmul(matrix[gemm], margins, out=interpolated[gemm])
        least = interpolated.reshape(len(matrix), -1, len(true)).min(axis=1)
        yield span, least, np.multiply.outer(1 + np.abs(matrix).sum(axis=1), bound)


def _sweep_run(enc: Entries, grid: tuple[float, ...], spec: SplitSpec) -> np.ndarray:
    """One run's validation accuracy at every alpha of the grid. A document
    of a palo without training documents is a miss, and one of the only
    fitted palo, when a split fits one, a hit. Otherwise a pair is a hit when
    its least interpolated margin (:func:`_sweep_margins`) exceeds twice the
    pair's bound, a miss when it lies below minus that, and else, exact ties
    included, a hit when :func:`_rescore` puts the true class first."""
    fit = _fit_split(enc, split_positions(enc.corpus, spec))
    truth, rows, mass = _validation_rows(enc, fit)
    # the documents of fitted palos, and each one's place in fit.classes
    fitted = np.isin(truth, fit.classes)
    true = np.searchsorted(fit.classes, truth[fitted])
    if len(fit.classes) == 1:
        return np.full(len(grid), len(true) / len(truth))
    if not fitted.all():
        rows = rows[fitted]
    alphas = np.array(grid)
    # per alpha and fitted document: a hit; the bound cannot certify it
    hit = np.empty((len(alphas), len(true)), dtype=bool)
    unsure = np.empty_like(hit)
    for span, least, bound in _sweep_margins(fit, true, rows, mass, alphas):
        bound *= 2
        np.greater(least, bound, out=hit[span])
        np.less_equal(np.abs(least), bound, out=unsure[span])
    k, docs = np.nonzero(unsure)
    if len(k):
        scores = _rescore(fit, rows, mass, docs, alphas[k])
        hit[k, docs] = np.argmax(scores, axis=1) == true[docs]
    return np.count_nonzero(hit, axis=1) / len(truth)


# set in pool workers by _init_worker
_worker_encoding: Entries | None = None
_worker_param = None


def _init_worker(started, cpus: list[int] | None, enc: Entries, param) -> None:
    global _worker_encoding, _worker_param
    _worker_encoding, _worker_param = enc, param
    if cpus is None:  # no affinity API on this platform: no placement
        return
    with started.get_lock():
        k, started.value = started.value, started.value + 1
    # Forked workers can start on the parent's CPU, and a short pool can end
    # before the kernel spreads them: worker k moves to CPU k now, and the
    # full mask leaves the kernel free to move it later.
    os.sched_setaffinity(0, {cpus[k]})
    os.sched_setaffinity(0, cpus)


def _in_worker(task):
    run, spec = task
    return run(_worker_encoding, _worker_param, spec)


def _map_runs(enc: Entries, run, param, specs: list[SplitSpec], threads: int) -> list:
    """``run(enc, param, spec)`` per spec, in order. With one spec or one
    thread the runs stay in this process. Otherwise worker processes start,
    at most one per spec and per CPU this process may run on (its affinity
    mask, or ``os.cpu_count()`` where the platform has none). On Linux they
    are forked and worker *k* starts on the *k*-th of those CPUs. Each
    receives the encoding, with the tables the runs read, and ``param``
    once, at start-up. Every process's runs refill ``enc.buffers``, made at
    their first use; a worker forked after they were made writes its own
    copy of them."""
    _ = enc.indptr, enc.column, enc.tf, enc.cell, enc.df  # made once, before any fork
    workers, cpus = min(threads, len(specs)), None
    if workers > 1:
        if hasattr(os, "sched_getaffinity"):
            cpus = sorted(os.sched_getaffinity(0))
        workers = min(workers, len(cpus) if cpus else os.cpu_count() or 1)
    if workers <= 1:
        return [run(enc, param, spec) for spec in specs]
    # Without the affinity API (macOS, Windows) the platform's own start
    # method is kept and nothing is placed.
    context = multiprocessing.get_context("fork" if cpus else None)
    with ProcessPoolExecutor(
        workers, mp_context=context, initializer=_init_worker,
        initargs=(context.Value("i", 0), cpus, enc, param),
    ) as pool:
        return list(pool.map(_in_worker, [(run, spec) for spec in specs]))


def _run_specs(split: SplitSpec, n_runs: int) -> list[SplitSpec]:
    if not 1 <= n_runs <= MAX_RUNS:
        raise ValueError(f"n_runs must lie in [1, {MAX_RUNS}], got {n_runs}")
    return [
        SplitSpec(split.train_fraction, derive_seed(split.seed, "run", i))
        for i in range(n_runs)
    ]


def _trainings(corpus: Corpus, alpha: float, n_runs: int, split: SplitSpec, threads: int):
    """The encoding of ``corpus`` and the rounds run on it."""
    specs = _run_specs(split, n_runs)
    enc = encode(corpus)
    check_alpha(alpha, len(enc.words))
    return enc, _map_runs(enc, _training_run, alpha, specs, threads)


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
    return _trainings(corpus, alpha, n_runs, split, threads)[1]


def train_and_fit(corpus: Corpus, alpha: float, n_runs: int, split: SplitSpec,
                  threads: int = 1) -> tuple[list[TrainingResult], MnbModel]:
    """:func:`run_trainings`, and the classifier of every record that holds
    a token, from the rounds' encoding: a round's fit with no validation
    side, whose class masses are those :func:`mnb.fit` sums over
    :func:`vectorize.tfidf` of those records, bit for bit. A palo none of
    whose records holds a token is not one of its classes."""
    enc, runs = _trainings(corpus, alpha, n_runs, split, threads)
    labels, counts = np.unique(enc.label[enc.lengths > 0], return_counts=True)
    vocab = Vocabulary(enc.words, tuple(enc.df.tolist()), int(counts.sum()))
    mass = _fit_split(enc, np.empty(0, np.intp)).mass[labels]
    return runs, fit_from_masses(vocab, [enc.classes[k] for k in labels], mass, counts, alpha)


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
    mass = off_diag.sum(axis=1, keepdims=True)
    confusion_only = np.divide(
        off_diag, mass, out=np.zeros_like(off_diag), where=mass > 0.0
    )
    return AggregateReport(
        n_runs=len(runs),
        classes=classes,
        mean_accuracy=mean_accuracy,
        accuracy_samples=samples,
        mean_global_accuracy=float(np.mean([r.global_accuracy for r in runs])),
        mean_confusion=mean_confusion,
        confusion_only=confusion_only,
    )


def alpha_grid(grid_step: float) -> tuple[float, ...]:
    """The sweep grid {grid_step, 2*grid_step, ..., <= 1}, of at most
    MAX_GRID_ALPHAS alphas."""
    if not 0.0 < grid_step <= 1.0:
        raise ValueError(f"grid_step must lie in (0, 1], got {grid_step}")
    n_steps = 1.0 / grid_step + 1e-9  # inf for the smallest steps
    if n_steps >= MAX_GRID_ALPHAS + 1:
        raise ValueError(
            f"grid_step must give at most {MAX_GRID_ALPHAS} alphas "
            f"(grid_step >= {1 / MAX_GRID_ALPHAS:g}), got {grid_step}"
        )
    n_steps = int(n_steps)
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
    per_run = _map_runs(encode(corpus), _sweep_run, grid, specs, threads)
    mean_accuracy = np.mean(per_run, axis=0)
    best_alpha = grid[int(np.argmax(mean_accuracy))]
    return AlphaSweepResult(
        grid=grid,
        mean_accuracy=tuple(float(a) for a in mean_accuracy),
        best_alpha=best_alpha,
        n_runs=n_runs,
    )


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless ``epsilon``, the floor tolerance of
    :func:`essential_words`, is finite and >= 0."""
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")


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
    if not 2 <= n_runs <= MAX_RUNS:
        raise ValueError(f"n_runs must lie in [2, {MAX_RUNS}], got {n_runs}")
    check_epsilon(epsilon)
    enc = encode(corpus)
    check_alpha(alpha, len(enc.words))
    n_classes, n_words = len(enc.classes), len(enc.words)
    # palos x every word: a run's full-width masses are 0.0 outside its
    # vocabulary, so such a word gets P = floor and adds exactly 0.0 to its sum
    deltas = np.zeros((n_classes, n_words))  # sum of (P - run floor), present runs
    total_floor = np.zeros(n_classes)  # sum of run floors, all runs
    flagged = np.zeros((n_classes, n_words), dtype=bool)
    seen = np.zeros(n_words, dtype=bool)

    for spec in _run_specs(split, n_runs):
        fit = _fit_split(enc, split_positions(enc.corpus, spec))
        probs = fit.mass  # turned into P - floor in place
        # a palo without training documents has zero masses
        totals, least = np.zeros(n_classes), np.zeros(n_classes)
        totals[fit.classes] = fit.totals
        least[fit.classes] = fit.least
        denom = alpha * fit.size + totals
        floor = alpha / denom
        probs += alpha
        probs /= denom[:, None]
        total_floor += floor
        # rounding is monotone, so this is the least P over the vocabulary
        threshold = (alpha + least) / denom * (1 + epsilon)
        flagged |= (probs <= threshold[:, None]) & fit.in_vocabulary
        probs -= floor[:, None]
        deltas += probs
        seen |= fit.in_vocabulary

    # words ranked by descending mean P(w|palo), ties in word order
    present = np.flatnonzero(seen)
    means = (deltas[:, present] + total_floor[:, None]) / n_runs
    used = np.bincount(enc.cell, minlength=n_classes * n_words)
    n_types = np.count_nonzero(used.reshape(n_classes, n_words), axis=1).tolist()

    per_palo, counts, normalized = {}, {}, {}
    for k, cls in enumerate(enc.classes):
        order = present[np.argsort(-means[k], kind="stable")]
        flagged_ranks = np.flatnonzero(flagged[k, order])
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
        n_runs=n_runs,
    )
