"""Repeated trainings, aggregation, smoothing sweeps, essential words."""

import math
import random
import warnings
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from lexpalo import experiments
from lexpalo.corpus_io import Corpus, SplitSpec, split_positions, stratified_split
from lexpalo.errors import AlphaNonPositiveError, InconsistentClassesError
from lexpalo.seeding import derive_seed

import oracles
from helpers import labeled_corpus, random_labeled_corpus


SEPARABLE = labeled_corpus(
    {
        "A": ["mar sol arena"] * 4,
        "B": ["pena noche sombra"] * 4,
    }
)

HALF = SplitSpec(train_fraction=0.5, seed=11)


def mixed_corpus(seed=303):
    """Palos share a small word pool, so classification stays imperfect."""
    rng = random.Random(seed)
    return random_labeled_corpus(
        rng, n_palos=3, docs_per_palo=(4, 6), pool_size=10, doc_len=(3, 8)
    )


def with_empty_records(corpus, seed, share=0.3):
    """The same corpus with about ``share`` of its texts emptied, as
    preprocessing leaves songs that held only stop words."""
    rng = random.Random(seed)
    return Corpus(
        dc_replace(r, text="") if rng.random() < share else r
        for r in corpus.records
    )


# Palo C keeps no tokens on the training side under EMPTY_PALO_SPLIT and
# under every run derived from EMPTY_PALO_RUNS (each puts "sol noche" on the
# validation side), so those runs fit two classes and never predict C.
EMPTY_PALO = labeled_corpus(
    {
        "A": ["mar sol arena", "mar mar sol", "sol arena playa", "mar playa"],
        "B": ["pena noche sombra", "noche pena", "sombra noche mar", "pena sombra"],
        "C": ["", "", "", "sol noche"],
    }
)
EMPTY_PALO_SPLIT = SplitSpec(train_fraction=0.5, seed=0)
EMPTY_PALO_RUNS = SplitSpec(train_fraction=0.5, seed=29)


# ---------------------------------------------------------------------------
# run_training


def test_training_separable_corpus_is_perfect():
    result = experiments.run_training(SEPARABLE, alpha=0.5, split=HALF)
    assert result.classes == ("A", "B")
    assert result.global_accuracy == 1.0
    assert result.per_class_accuracy == {"A": 1.0, "B": 1.0}
    assert np.array_equal(result.confusion, [[2, 0], [0, 2]])
    assert result.seed == HALF.seed


def test_training_oov_validation_doc_falls_back_to_priors():
    # B holds two distinct single-word songs, so whichever lands in the
    # validation half is out-of-vocabulary there and gets scored by priors
    # alone; A has more training docs, hence the larger prior.
    corpus = labeled_corpus({"A": ["mar sol"] * 4, "B": ["uno", "dos"]})
    result = experiments.run_training(corpus, alpha=0.5, split=HALF)
    assert np.array_equal(result.confusion, [[2, 0], [1, 0]])
    assert result.per_class_accuracy == {"A": 1.0, "B": 0.0}
    assert result.global_accuracy == pytest.approx(2 / 3)


def test_training_confusion_rows_match_validation_counts():
    corpus = mixed_corpus()
    split = SplitSpec(train_fraction=0.5, seed=99)
    result = experiments.run_training(corpus, alpha=0.5, split=split)
    _, validation = stratified_split(corpus, split)
    for k, palo in enumerate(result.classes):
        expected = sum(1 for r in validation.records if r.palo == palo)
        assert result.confusion[k].sum() == expected


def test_training_accuracies_recompute_from_confusion():
    result = experiments.run_training(
        mixed_corpus(7), alpha=0.3, split=SplitSpec(train_fraction=0.7, seed=5)
    )
    confusion = result.confusion
    assert result.global_accuracy == confusion.trace() / confusion.sum()
    for k, palo in enumerate(result.classes):
        assert result.per_class_accuracy[palo] == (
            confusion[k, k] / confusion[k].sum()
        )


def test_training_tolerates_token_free_records():
    corpus = labeled_corpus(
        {"A": ["mar sol", "", "mar sol", "mar sol"], "B": ["pena", "pena"]}
    )
    result = experiments.run_training(corpus, alpha=0.5, split=HALF)
    assert result.confusion.sum() == 3  # 2 validation A docs + 1 B doc


def test_training_is_deterministic():
    first = experiments.run_training(mixed_corpus(), alpha=0.5, split=HALF)
    second = experiments.run_training(mixed_corpus(), alpha=0.5, split=HALF)
    assert np.array_equal(first.confusion, second.confusion)
    assert first.per_class_accuracy == second.per_class_accuracy
    assert first.global_accuracy == second.global_accuracy


# ---------------------------------------------------------------------------
# run_trainings


def test_trainings_use_derived_per_run_seeds():
    runs = experiments.run_trainings(SEPARABLE, 0.5, 3, HALF)
    assert [r.seed for r in runs] == [
        derive_seed(HALF.seed, "run", i) for i in range(3)
    ]


def test_trainings_match_individually_seeded_runs():
    corpus = mixed_corpus()
    runs = experiments.run_trainings(corpus, 0.5, 4, HALF)
    for i, run in enumerate(runs):
        spec = SplitSpec(
            train_fraction=HALF.train_fraction,
            seed=derive_seed(HALF.seed, "run", i),
        )
        alone = experiments.run_training(corpus, 0.5, spec)
        assert np.array_equal(run.confusion, alone.confusion)
        assert run.global_accuracy == alone.global_accuracy


def test_trainings_parallel_equals_sequential():
    corpus = mixed_corpus()
    sequential = experiments.run_trainings(corpus, 0.5, 4, HALF, threads=1)
    parallel = experiments.run_trainings(corpus, 0.5, 4, HALF, threads=2)
    assert [r.seed for r in sequential] == [r.seed for r in parallel]
    for s, p in zip(sequential, parallel):
        assert np.array_equal(s.confusion, p.confusion)
        assert s.per_class_accuracy == p.per_class_accuracy
        assert s.global_accuracy == p.global_accuracy


def test_trainings_rejects_nonpositive_run_count():
    with pytest.raises(ValueError, match="n_runs"):
        experiments.run_trainings(SEPARABLE, 0.5, 0, HALF)


# ---------------------------------------------------------------------------
# aggregate


def test_aggregate_single_run_reproduces_the_run():
    (run,) = experiments.run_trainings(mixed_corpus(), 0.5, 1, HALF)
    report = experiments.aggregate([run])
    assert report.n_runs == 1
    assert report.mean_accuracy == run.per_class_accuracy
    assert report.mean_global_accuracy == run.global_accuracy
    normalized = run.confusion / run.confusion.sum(axis=1, keepdims=True)
    assert np.array_equal(report.mean_confusion, normalized)


def test_aggregate_diagonal_equals_mean_accuracy():
    runs = experiments.run_trainings(mixed_corpus(), 0.5, 6, HALF)
    report = experiments.aggregate(runs)
    for k, palo in enumerate(report.classes):
        assert report.mean_confusion[k, k] == pytest.approx(
            report.mean_accuracy[palo], abs=1e-15
        )
        assert report.accuracy_samples[palo] == tuple(
            r.per_class_accuracy[palo] for r in runs
        )
        assert report.mean_accuracy[palo] == pytest.approx(
            np.mean(report.accuracy_samples[palo]), abs=1e-15
        )


def test_aggregate_mean_confusion_rows_sum_to_one():
    report = experiments.aggregate(
        experiments.run_trainings(mixed_corpus(), 0.5, 6, HALF)
    )
    assert np.allclose(report.mean_confusion.sum(axis=1), 1.0, atol=1e-9)


def test_aggregate_confusion_only_renormalizes_off_diagonal():
    report = experiments.aggregate(
        experiments.run_trainings(mixed_corpus(), 0.5, 6, HALF)
    )
    assert np.all(np.diag(report.confusion_only) == 0.0)
    for k, palo in enumerate(report.classes):
        row_sum = report.confusion_only[k].sum()
        if palo in report.zero_confusion_palos:
            assert row_sum == 0.0
        else:
            assert row_sum == pytest.approx(1.0, abs=1e-9)
            off = report.mean_confusion[k].copy()
            off[k] = 0.0
            assert np.allclose(
                report.confusion_only[k], off / off.sum(), atol=1e-15
            )


def test_aggregate_perfect_classifier_has_no_confusion():
    report = experiments.aggregate(
        experiments.run_trainings(SEPARABLE, 0.5, 3, HALF)
    )
    assert report.zero_confusion_palos == ("A", "B")
    assert np.all(report.confusion_only == 0.0)
    assert np.array_equal(report.mean_confusion, np.eye(2))
    assert report.mean_global_accuracy == 1.0


def test_aggregate_rejects_empty_and_mismatched_runs():
    with pytest.raises(ValueError, match="no runs"):
        experiments.aggregate([])
    r1 = experiments.run_training(
        labeled_corpus({"A": ["mar"] * 2, "B": ["sol"] * 2}), 0.5, HALF
    )
    r2 = experiments.run_training(
        labeled_corpus({"A": ["mar"] * 2, "C": ["sol"] * 2}), 0.5, HALF
    )
    with pytest.raises(InconsistentClassesError):
        experiments.aggregate([r1, r2])


# ---------------------------------------------------------------------------
# alpha grid and sweep


def test_alpha_grid_standard_step():
    grid = experiments.alpha_grid(0.005)
    assert len(grid) == 200
    assert grid[0] == 0.005
    assert grid[-1] == 1.0
    assert grid[19] == 0.1
    assert len(set(grid)) == 200


def test_alpha_grid_coarse_steps():
    assert experiments.alpha_grid(0.25) == (0.25, 0.5, 0.75, 1.0)
    assert experiments.alpha_grid(0.3) == (0.3, 0.6, 0.9)
    assert experiments.alpha_grid(1.0) == (1.0,)


def test_alpha_grid_is_increasing_and_capped():
    for step in (0.005, 0.01, 0.02, 0.1, 1 / 3):
        grid = experiments.alpha_grid(step)
        assert list(grid) == sorted(grid)
        assert 0.0 < grid[0] and grid[-1] <= 1.0


def test_alpha_grid_rejects_bad_steps():
    for step in (0.0, -0.1, 1.2):
        with pytest.raises(ValueError, match="grid_step"):
            experiments.alpha_grid(step)


def test_sweep_separable_corpus_is_flat_at_one():
    result = experiments.alpha_sweep(SEPARABLE, 0.25, 3, HALF)
    assert result.grid == (0.25, 0.5, 0.75, 1.0)
    assert result.mean_accuracy == (1.0, 1.0, 1.0, 1.0)
    assert result.best_alpha == 0.25  # ties resolve to the smallest alpha
    assert result.n_runs == 3


def test_sweep_matches_repeated_trainings_per_alpha():
    corpus = mixed_corpus()
    sweep = experiments.alpha_sweep(corpus, 0.5, 4, HALF)
    assert sweep.grid == (0.5, 1.0)
    for g, alpha in enumerate(sweep.grid):
        runs = experiments.run_trainings(corpus, alpha, 4, HALF)
        expected = np.mean([r.global_accuracy for r in runs])
        assert sweep.mean_accuracy[g] == pytest.approx(expected, abs=1e-15)


def test_sweep_shared_splits_make_grids_nest():
    corpus = mixed_corpus()
    coarse = experiments.alpha_sweep(corpus, 0.5, 4, HALF)
    fine = experiments.alpha_sweep(corpus, 0.25, 4, HALF)
    assert fine.mean_accuracy[fine.grid.index(0.5)] == coarse.mean_accuracy[0]
    assert fine.mean_accuracy[fine.grid.index(1.0)] == coarse.mean_accuracy[1]


def test_sweep_is_deterministic_and_thread_invariant():
    corpus = mixed_corpus()
    first = experiments.alpha_sweep(corpus, 0.25, 3, HALF)
    second = experiments.alpha_sweep(corpus, 0.25, 3, HALF)
    threaded = experiments.alpha_sweep(corpus, 0.25, 3, HALF, threads=2)
    assert first == second == threaded


def test_sweep_best_alpha_is_grid_argmax():
    result = experiments.alpha_sweep(mixed_corpus(), 0.25, 5, HALF)
    best = max(
        range(len(result.grid)), key=lambda g: (result.mean_accuracy[g], -g)
    )
    assert result.best_alpha == result.grid[best]


def test_sweep_rejects_nonpositive_run_count():
    with pytest.raises(ValueError, match="n_runs"):
        experiments.alpha_sweep(SEPARABLE, 0.5, 0, HALF)


# ---------------------------------------------------------------------------
# essential words


def test_essential_zero_mass_words_set_the_cutoff():
    corpus = labeled_corpus({"A": ["mar mar sol"] * 4, "B": ["pena zzz"] * 4})
    report = experiments.essential_words(corpus, 0.5, 3, HALF)
    assert report.per_palo == {"A": ("mar", "sol"), "B": ("pena", "zzz")}
    assert report.counts == {"A": 2, "B": 2}
    assert report.threshold_rank == {"A": 2, "B": 2}
    assert report.normalized == {"A": 1.0, "B": 1.0}
    assert report.n_runs == 3


def test_essential_identical_palos_get_identical_lists():
    corpus = labeled_corpus({"X": ["mar mar sol"] * 4, "Y": ["mar mar sol"] * 4})
    report = experiments.essential_words(corpus, 0.5, 3, HALF)
    assert report.per_palo["X"] == report.per_palo["Y"] == ("mar",)
    assert report.counts["X"] == report.counts["Y"] == 1


def test_essential_larger_epsilon_never_grows_the_lists():
    corpus = mixed_corpus()
    strict = experiments.essential_words(corpus, 0.5, 4, HALF, epsilon=0.0)
    loose = experiments.essential_words(corpus, 0.5, 4, HALF, epsilon=0.3)
    for palo in strict.counts:
        assert loose.counts[palo] <= strict.counts[palo]


def test_essential_is_deterministic():
    corpus = mixed_corpus()
    first = experiments.essential_words(corpus, 0.5, 4, HALF)
    second = experiments.essential_words(corpus, 0.5, 4, HALF)
    assert first == second


def test_essential_rejects_bad_parameters():
    with pytest.raises(ValueError, match="n_runs"):
        experiments.essential_words(SEPARABLE, 0.5, 1, HALF)
    with pytest.raises(ValueError, match="epsilon"):
        experiments.essential_words(SEPARABLE, 0.5, 3, HALF, epsilon=-0.1)


def oracle_essential_report(corpus, alpha, n_runs, split, epsilon):
    """Recompute the essential-word report with plain dict arithmetic.

    Shares the library's stratified splits (the seeding contract) but builds
    TF-IDF rows, per-class masses, floors, flags, means, and ranks from
    scratch.
    """
    classes = sorted({r.palo for r in corpus.records})
    run_data = []
    flagged = {c: set() for c in classes}
    for i in range(n_runs):
        spec = SplitSpec(
            train_fraction=split.train_fraction,
            seed=derive_seed(split.seed, "run", i),
        )
        train, _ = stratified_split(corpus, spec)
        docs, labels = [], []
        for rec in train.records:
            tokens = rec.text.split()
            if tokens:
                docs.append(tokens)
                labels.append(rec.palo)
        rows, words, _ = oracles.tfidf_rows(docs)
        pos = {w: j for j, w in enumerate(words)}
        p_by_class, floor_by_class = {}, {}
        for c in classes:
            mass = [0.0] * len(words)
            for row, lab in zip(rows, labels):
                if lab == c:
                    for j, x in enumerate(row):
                        mass[j] += x
            denom = alpha * len(words) + sum(mass)
            p = {w: (alpha + mass[pos[w]]) / denom for w in words}
            lo = min(p.values())
            flagged[c].update(w for w, v in p.items() if v <= lo * (1 + epsilon))
            p_by_class[c] = p
            floor_by_class[c] = alpha / denom
        run_data.append((set(words), p_by_class, floor_by_class))

    union = sorted({w for seen, _, _ in run_data for w in seen})
    types = {c: set() for c in classes}
    for rec in corpus.records:
        types[rec.palo].update(rec.text.split())

    per_palo, counts, normalized, thresholds = {}, {}, {}, {}
    for c in classes:
        means = {}
        for w in union:
            total = 0.0
            for seen, p_by_class, floor_by_class in run_data:
                total += p_by_class[c][w] if w in seen else floor_by_class[c]
            means[w] = total / n_runs
        order = sorted(union, key=lambda w: (-means[w], w))
        rank = {w: r for r, w in enumerate(order)}
        cut = min(rank[w] for w in flagged[c])
        per_palo[c] = tuple(order[:cut])
        counts[c] = cut
        thresholds[c] = cut
        normalized[c] = cut / len(types[c]) if types[c] else 0.0
    return per_palo, counts, normalized, thresholds


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_essential_matches_bruteforce_recomputation(seed):
    rng = random.Random(seed)
    corpus = random_labeled_corpus(
        rng, n_palos=3, docs_per_palo=(4, 7), pool_size=12, doc_len=(3, 8)
    )
    split = SplitSpec(train_fraction=0.7, seed=seed)
    report = experiments.essential_words(corpus, 0.5, 4, split, epsilon=1e-9)
    per_palo, counts, normalized, thresholds = oracle_essential_report(
        corpus, 0.5, 4, split, epsilon=1e-9
    )
    assert report.per_palo == per_palo
    assert report.counts == counts
    assert report.normalized == normalized
    assert report.threshold_rank == thresholds


# ---------------------------------------------------------------------------
# empty records and a palo that loses every training-side token


def oracle_confusion(corpus, alpha, split):
    """One round's confusion counts from the brute-force TF-IDF and naive
    Bayes, over the library's stratified split (the seeding contract)."""
    classes = sorted({r.palo for r in corpus.records})
    train, validation = stratified_split(corpus, split)
    docs, labels = [], []
    for rec in train.records:
        if rec.text.split():
            docs.append(rec.text.split())
            labels.append(rec.palo)
    rows, words, df = oracles.tfidf_rows(docs)
    model = oracles.mnb_fit(rows, labels, alpha)
    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    for rec in validation.records:
        row = oracles.tfidf_row(rec.text.split(), words, df, len(docs))
        _, predicted = oracles.mnb_score(model, row)
        confusion[classes.index(rec.palo), classes.index(predicted)] += 1
    return confusion


def test_training_side_without_a_palo_pins_the_fitted_classes():
    train, _ = stratified_split(EMPTY_PALO, EMPTY_PALO_SPLIT)
    assert not any(r.text for r in train.records if r.palo == "C")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = experiments.run_training(EMPTY_PALO, 0.5, EMPTY_PALO_SPLIT)
    assert result.classes == ("A", "B", "C")
    assert result.confusion.tolist() == [[2, 0, 0], [0, 2, 0], [1, 1, 0]]
    assert result.per_class_accuracy == {"A": 1.0, "B": 1.0, "C": 0.0}
    assert result.global_accuracy == 4 / 6


def test_sweep_and_essential_without_a_palo_on_the_training_side():
    for i in range(3):
        spec = SplitSpec(
            train_fraction=EMPTY_PALO_RUNS.train_fraction,
            seed=derive_seed(EMPTY_PALO_RUNS.seed, "run", i),
        )
        train, _ = stratified_split(EMPTY_PALO, spec)
        assert not any(r.text for r in train.records if r.palo == "C")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sweep = experiments.alpha_sweep(EMPTY_PALO, 0.25, 3, EMPTY_PALO_RUNS)
        report = experiments.essential_words(EMPTY_PALO, 0.5, 3, EMPTY_PALO_RUNS)
    assert sweep.mean_accuracy == (4 / 6,) * 4
    assert sweep.best_alpha == 0.25
    assert report.per_palo == {
        "A": ("mar", "playa", "sol", "arena"),
        "B": ("pena", "sombra", "noche"),
        "C": (),
    }
    assert report.counts == report.threshold_rank == {"A": 4, "B": 3, "C": 0}
    assert report.normalized == {"A": 1.0, "B": 0.75, "C": 0.0}


@pytest.mark.parametrize("seed", [51, 52, 53])
def test_pooled_trainings_with_empty_records_match_bruteforce(seed):
    corpus = with_empty_records(mixed_corpus(seed), seed)
    split = SplitSpec(train_fraction=0.6, seed=seed)
    runs = experiments.run_trainings(corpus, 0.5, 4, split, threads=2)
    for run in runs:
        spec = SplitSpec(train_fraction=split.train_fraction, seed=run.seed)
        assert np.array_equal(run.confusion, oracle_confusion(corpus, 0.5, spec))


@pytest.mark.parametrize("seed", [61, 62, 63])
def test_essential_with_empty_records_matches_bruteforce(seed):
    corpus = with_empty_records(mixed_corpus(seed), seed)
    split = SplitSpec(train_fraction=0.7, seed=seed)
    report = experiments.essential_words(corpus, 0.5, 4, split, epsilon=1e-9)
    per_palo, counts, normalized, thresholds = oracle_essential_report(
        corpus, 0.5, 4, split, epsilon=1e-9
    )
    assert report.per_palo == per_palo
    assert report.counts == counts
    assert report.normalized == normalized
    assert report.threshold_rank == thresholds


@pytest.mark.parametrize("seed", [7, 14, 15])
def test_essential_with_run_dependent_vocabularies_matches_bruteforce(seed):
    # rare words drop out of some runs' vocabularies, so the ranking depends
    # on which palo's floor each run subtracts
    corpus = random_labeled_corpus(
        random.Random(seed), n_palos=3, docs_per_palo=(4, 8), pool_size=25,
        doc_len=(2, 12),
    )
    split = SplitSpec(train_fraction=0.6, seed=seed)
    report = experiments.essential_words(corpus, 0.5, 4, split, epsilon=1e-9)
    per_palo, counts, normalized, thresholds = oracle_essential_report(
        corpus, 0.5, 4, split, epsilon=1e-9
    )
    assert report.per_palo == per_palo
    assert report.counts == counts
    assert report.normalized == normalized
    assert report.threshold_rank == thresholds


def sorted_vocabulary_encoding(corpus):
    """Words, CSR indptr/indices/data of token counts and token counts per
    record, the plain way: sort the vocabulary, then count each record."""
    docs = [rec.text.split() for rec in corpus.records]
    words = sorted({word for doc in docs for word in doc})
    indptr, indices, data = [0], [], []
    for doc in docs:
        counts = {}
        for word in doc:
            counts[words.index(word)] = counts.get(words.index(word), 0) + 1
        for column in sorted(counts):
            indices.append(column)
            data.append(counts[column])
        indptr.append(len(indices))
    return tuple(words), indptr, indices, data, [len(doc) for doc in docs]


@pytest.mark.parametrize("seed", [71, 72, 73])
def test_encoding_matches_a_sorted_vocabulary_encoding(seed):
    corpus = with_empty_records(mixed_corpus(seed), seed)
    assert any(not rec.text for rec in corpus.records)
    encoding = experiments._encode(corpus)
    words, indptr, indices, data, lengths = sorted_vocabulary_encoding(corpus)
    assert encoding.words == words
    assert encoding.counts.indptr.tolist() == indptr
    assert encoding.counts.indices.tolist() == indices
    assert encoding.counts.data.tolist() == data
    assert encoding.lengths.tolist() == lengths
    assert encoding.tf.indptr.tolist() == indptr
    assert encoding.tf.indices.tolist() == indices
    rows = np.repeat(np.arange(len(lengths)), np.diff(indptr))
    assert encoding.tf.data.tolist() == [
        count / lengths[r] for count, r in zip(data, rows)
    ]


# ---------------------------------------------------------------------------
# term frequencies: rounds equal the from-counts construction


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [81, 82, 83])
def test_rounds_equal_the_from_counts_construction(seed):
    rng = random.Random(seed)
    for corpus in (
        with_empty_records(mixed_corpus(seed), seed),
        with_empty_records(
            random_labeled_corpus(
                rng, n_palos=4, docs_per_palo=(5, 12), pool_size=60, doc_len=(1, 40)
            ),
            seed,
            share=0.2,
        ),
    ):
        enc = experiments._encode(corpus)
        assert not all(enc.lengths)
        for spec in experiments._run_specs(SplitSpec(0.6, seed), 10):
            fit = experiments._fit_split(enc, spec)
            train, validation = map(np.asarray, split_positions(corpus, spec))
            train = train[enc.lengths[train] > 0]
            reference = oracles.fit_from_counts(
                enc.counts, enc.lengths, enc.labels, len(enc.classes), train
            )
            fields = (fit.position, fit.idf, fit.classes, fit.mass, fit.log_prior)
            for got, want in zip(fields, reference):
                assert same_bits(got, want)
            assert same_bits(fit.validation, validation)
            truth, predict = experiments._predictor(enc, fit)
            assert same_bits(truth, enc.labels[validation])
            for alpha in (1e-6, 0.11, 0.5, 1.0, 7.0):
                assert same_bits(
                    predict(alpha),
                    oracles.predict_from_counts(
                        enc.counts, enc.lengths, validation, reference, alpha
                    ),
                )


# ---------------------------------------------------------------------------
# alpha domain


BAD_ALPHAS = [0.0, -0.5, math.nan, math.inf, -math.inf, 1e308]


@pytest.mark.parametrize("alpha", BAD_ALPHAS)
def test_experiments_reject_alphas_outside_the_domain(alpha):
    corpus = mixed_corpus()
    with pytest.raises(AlphaNonPositiveError, match="finite and > 0"):
        experiments.run_training(corpus, alpha, HALF)
    with pytest.raises(AlphaNonPositiveError):
        experiments.run_trainings(corpus, alpha, 2, HALF, threads=2)
    with pytest.raises(AlphaNonPositiveError):
        experiments.essential_words(corpus, alpha, 2, HALF)
