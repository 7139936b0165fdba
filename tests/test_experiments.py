"""Repeated trainings, aggregation, smoothing sweeps, essential words."""

import math
import multiprocessing
import os
import random
import subprocess
import sys
import warnings
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from lexpalo import experiments, mnb
from lexpalo.corpus_io import Corpus, LyricRecord, SplitSpec, filter_top_palos, split_positions
from lexpalo.errors import AlphaNonPositiveError, InconsistentClassesError
from lexpalo.preprocess import default_config, preprocess_corpus
from lexpalo.seeding import derive_seed
from lexpalo.vectorize import build_vocabulary, encode, tfidf

import oracles
from helpers import (
    benchmark_corpus,
    generated_corpus,
    labeled_corpus,
    random_labeled_corpus,
)


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
# one training round


def run_training(corpus, alpha, split):
    """One seeded split + fit + validation round, as run_trainings runs each
    of its rounds."""
    enc = encode(corpus)
    experiments.check_alpha(alpha, len(enc.words))
    return experiments._training_run(enc, alpha, split)


def test_training_separable_corpus_is_perfect():
    result = run_training(SEPARABLE, alpha=0.5, split=HALF)
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
    result = run_training(corpus, alpha=0.5, split=HALF)
    assert np.array_equal(result.confusion, [[2, 0], [1, 0]])
    assert result.per_class_accuracy == {"A": 1.0, "B": 0.0}
    assert result.global_accuracy == pytest.approx(2 / 3)


def test_training_confusion_rows_match_validation_counts():
    corpus = mixed_corpus()
    split = SplitSpec(train_fraction=0.5, seed=99)
    result = run_training(corpus, alpha=0.5, split=split)
    _, validation = oracles.stratified_split(corpus, split)
    for k, palo in enumerate(result.classes):
        expected = sum(1 for r in validation.records if r.palo == palo)
        assert result.confusion[k].sum() == expected


def test_training_accuracies_recompute_from_confusion():
    result = run_training(
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
    result = run_training(corpus, alpha=0.5, split=HALF)
    assert result.confusion.sum() == 3  # 2 validation A docs + 1 B doc


def test_training_is_deterministic():
    first = run_training(mixed_corpus(), alpha=0.5, split=HALF)
    second = run_training(mixed_corpus(), alpha=0.5, split=HALF)
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
        alone = run_training(corpus, 0.5, spec)
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


def test_worker_pool_holds_at_most_one_process_per_run(monkeypatch):
    started = []
    pool = experiments.ProcessPoolExecutor

    def recording_pool(max_workers, **kwargs):
        started.append(max_workers)
        return pool(min(max_workers, 2), **kwargs)  # never a large pool

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(16)))
    # the forked workers inherit this: they may not ask for CPUs the host lacks
    monkeypatch.setattr(experiments.os, "sched_setaffinity", lambda pid, mask: None)
    corpus = mixed_corpus()
    sequential = experiments.run_trainings(corpus, 0.5, 2, HALF, threads=1)
    for threads, n_runs, pools in ((16, 2, [2]), (2, 1, []), (3, 2, [2])):
        started.clear()
        runs = experiments.run_trainings(corpus, 0.5, n_runs, HALF, threads=threads)
        assert started == pools
        for s, p in zip(sequential, runs):
            assert np.array_equal(s.confusion, p.confusion)
            assert s.global_accuracy == p.global_accuracy


class SerialPool:
    """Stands in for ProcessPoolExecutor: records the worker count and the
    start method asked for, runs the initializer once per worker and every
    job in this process."""

    def __init__(self, started, max_workers, initializer, initargs, mp_context=None):
        started.append(max_workers)
        self.start_method = mp_context and mp_context.get_start_method()
        for _ in range(max_workers):
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return list(map(fn, tasks))


def serial_pools(monkeypatch, cpu_count, mask):
    """Pools become SerialPools on a host whose ``os.cpu_count()`` is
    ``cpu_count`` and whose affinity mask is ``mask`` (``None``: a platform
    without the affinity API, such as macOS or Windows); returns the worker
    counts asked for, the pools made and the affinity masks set."""
    started, pools, placed = [], [], []

    def serial_pool(max_workers, **kwargs):
        pools.append(SerialPool(started, max_workers, **kwargs))
        return pools[-1]

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", serial_pool)
    monkeypatch.setattr(experiments, "_worker_encoding", None)
    monkeypatch.setattr(experiments, "_worker_param", None)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpu_count)
    if mask is None:
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        monkeypatch.delattr(experiments.os, "sched_setaffinity", raising=False)
        return started, pools, placed
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(mask))
    monkeypatch.setattr(
        experiments.os, "sched_setaffinity", lambda pid, cpus: placed.append((pid, set(cpus)))
    )
    return started, pools, placed


@pytest.mark.parametrize(
    "cpu_count, mask, threads, n_runs, pools",
    [
        (2, {0, 1}, 500, 6, [2]),  # LEXPALO_THREADS=500 on two CPUs
        (4, {0, 1, 2, 3}, 3, 6, [3]),
        (4, {0, 1, 2, 3}, 500, 3, [3]),  # fewer runs than CPUs
        (1, {0}, 8, 6, []),
        (None, {3}, 8, 6, []),  # CPU count unknown, one CPU allowed: one process
        (2, {1}, 8, 6, []),  # two CPUs, of which the mask allows one
        # no affinity API: the serial path still runs, os.cpu_count() caps
        (2, None, 500, 6, [2]),
        (None, None, 8, 6, []),
    ],
)
def test_worker_processes_are_capped_by_the_cpu_count(
    monkeypatch, cpu_count, mask, threads, n_runs, pools
):
    # the CPUs that count are those of the affinity mask, not os.cpu_count()
    started, made, placed = serial_pools(monkeypatch, cpu_count, mask)
    corpus = mixed_corpus()
    sequential = experiments.run_trainings(corpus, 0.5, n_runs, HALF, threads=1)
    assert started == []
    runs = experiments.run_trainings(corpus, 0.5, n_runs, HALF, threads=threads)
    assert started == pools
    # without the affinity API nothing is placed and the platform's own
    # start method is kept
    assert len(placed) == (0 if mask is None else 2 * sum(pools))
    start_method = "fork" if mask else multiprocessing.get_start_method()
    assert [pool.start_method for pool in made] == [start_method] * len(pools)
    for s, p in zip(sequential, runs, strict=True):
        assert np.array_equal(s.confusion, p.confusion)
        assert s.global_accuracy == p.global_accuracy


@pytest.mark.parametrize("run", ["trainings", "sweep"])
def test_each_worker_starts_on_its_own_cpu(monkeypatch, run):
    mask = {9, 3, 12, 5}
    started, pools, placed = serial_pools(monkeypatch, 16, mask)
    corpus = mixed_corpus()
    if run == "trainings":
        experiments.run_trainings(corpus, 0.5, 6, HALF, threads=3)
    else:
        experiments.alpha_sweep(corpus, 0.25, 6, HALF, threads=3)
    assert started == [3]
    # worker k moves to the k-th CPU of the mask, then may run on any of them
    assert placed == [
        (0, {3}), (0, mask), (0, {5}), (0, mask), (0, {9}), (0, mask),
    ]
    # forked, not sent through a forkserver or a spawned interpreter
    assert [pool.start_method for pool in pools] == ["fork"]


def test_trainings_rejects_nonpositive_run_count():
    with pytest.raises(ValueError, match="n_runs"):
        experiments.run_trainings(SEPARABLE, 0.5, 0, HALF)


def test_run_counts_above_the_cap_are_rejected_before_any_spec_is_made(monkeypatch):
    def no_specs(*args):
        raise AssertionError("spec made")

    monkeypatch.setattr(experiments, "SplitSpec", no_specs)
    too_many = experiments.MAX_RUNS + 1
    for run in (
        lambda: experiments.run_trainings(SEPARABLE, 0.5, too_many, HALF),
        lambda: experiments.alpha_sweep(SEPARABLE, 0.5, 10**10, HALF),
        lambda: experiments.essential_words(SEPARABLE, 0.5, too_many, HALF),
    ):
        with pytest.raises(ValueError, match=f"n_runs must lie in \\[[12], {too_many - 1}\\]"):
            run()


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
    for k in range(len(report.classes)):
        row_sum = report.confusion_only[k].sum()
        off = report.mean_confusion[k].copy()
        off[k] = 0.0
        if not off.any():  # a palo never confused: an all-zero row
            assert row_sum == 0.0
        else:
            assert row_sum == pytest.approx(1.0, abs=1e-9)
            assert np.allclose(
                report.confusion_only[k], off / off.sum(), atol=1e-15
            )


def test_aggregate_perfect_classifier_has_no_confusion():
    report = experiments.aggregate(
        experiments.run_trainings(SEPARABLE, 0.5, 3, HALF)
    )
    assert [p for p, row in zip(report.classes, report.confusion_only)
            if not row.any()] == ["A", "B"]
    assert np.all(report.confusion_only == 0.0)
    assert np.array_equal(report.mean_confusion, np.eye(2))
    assert report.mean_global_accuracy == 1.0


def test_aggregate_rejects_empty_and_mismatched_runs():
    with pytest.raises(ValueError, match="no runs"):
        experiments.aggregate([])
    r1 = run_training(
        labeled_corpus({"A": ["mar"] * 2, "B": ["sol"] * 2}), 0.5, HALF
    )
    r2 = run_training(
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


def test_alpha_grid_rejects_grids_above_the_cap_before_building_one():
    cap = experiments.MAX_GRID_ALPHAS
    assert len(experiments.alpha_grid(1 / cap)) == cap
    # 1e-9 would build a tuple of 10**9 alphas; 5e-324 overflowed in int()
    for step in (1 / (cap + 1), 1e-9, 5e-324):
        with pytest.raises(ValueError, match="at most"):
            experiments.alpha_grid(step)


# ---------------------------------------------------------------------------
# sweep: the interpolated margin screen leaves the float64 hits


def preprocessed_benchmark_corpus(seed, shape):
    corpus = filter_top_palos(benchmark_corpus(seed, shape), 100)
    return preprocess_corpus(corpus, default_config())


def duplicated_songs_corpus(seed):
    """Palo B repeats every song of palo A, and palo C's songs are all
    empty: C fits no class, so its validation songs are misses."""
    songs = [r.text for r in generated_corpus(seed).records][:12]
    return labeled_corpus({"A": songs, "B": songs, "C": [""] * 4})


def tied_songs_corpus(seed):
    """Palos A and B each repeat one song: every split fits them the same
    masses and priors, so every validation song ties its rival exactly."""
    song = generated_corpus(seed).records[0].text
    return labeled_corpus({"A": [song] * 4, "B": [song] * 4})


SCREEN_CORPORA = {
    "reference": lambda: preprocessed_benchmark_corpus(5, "REFERENCE"),
    "wide": lambda: preprocessed_benchmark_corpus(3, "WIDE"),
    "duplicated-songs": lambda: duplicated_songs_corpus(41),
    "tied-songs": lambda: tied_songs_corpus(41),
    "emptied-records": lambda: with_empty_records(
        generated_corpus(42, counts=(12, 8, 5, 3)), 42
    ),
    "palo-without-training-side": lambda: EMPTY_PALO,
    # palo B's songs are all empty, so every split fits palo A alone
    "one-fitted-palo": lambda: labeled_corpus(
        {"A": [r.text for r in generated_corpus(43).records][:8], "B": [""] * 4}
    ),
    # no validation song shares a word with the training side
    "unseen-validation-words": lambda: labeled_corpus(
        {"A": ["mar sol", "pena noche"], "B": ["luna arena", "sombra playa"]}
    ),
}


@pytest.fixture(scope="module")
def screen_encodings():
    return {name: encode(make()) for name, make in SCREEN_CORPORA.items()}


def counting_rescore(monkeypatch):
    """Route the sweep's rescoring through a wrapper that counts its pairs."""
    pairs = []
    rescore = experiments._rescore

    def counted(fit, rows, mass, docs, alphas):
        pairs.append(len(docs))
        return rescore(fit, rows, mass, docs, alphas)

    monkeypatch.setattr(experiments, "_rescore", counted)
    return pairs


@pytest.mark.parametrize(
    "name, split, n_runs",
    [
        ("reference", SplitSpec(0.85, 5), 2),
        ("wide", SplitSpec(0.85, 3), 1),
        ("duplicated-songs", SplitSpec(0.6, 7), 6),
        ("tied-songs", SplitSpec(0.6, 7), 6),
        ("emptied-records", SplitSpec(0.6, 8), 6),
        ("palo-without-training-side", EMPTY_PALO_RUNS, 6),
        ("one-fitted-palo", SplitSpec(0.6, 9), 6),
        ("unseen-validation-words", HALF, 3),
    ],
)
def test_sweep_hits_equal_the_float64_loop(
    name, split, n_runs, screen_encodings, monkeypatch
):
    enc = screen_encodings[name]
    grid = experiments.alpha_grid(0.005)
    pairs = counting_rescore(monkeypatch)
    for spec in experiments._run_specs(split, n_runs):
        assert experiments._sweep_run(enc, grid, spec).tolist() == (
            oracle_accuracies(enc, spec, grid)
        )
    if name in ("reference", "wide"):
        # the interpolated screen certifies nearly every pair on corpora of
        # real shape: it rescored 0.10% (reference) and 0.09% (wide) of them
        # over 60 and 40 splits
        n_validation = len(oracles.stratified_positions(enc.corpus, spec)[1])
        assert sum(pairs) <= 0.002 * n_runs * len(grid) * n_validation
    if name == "tied-songs":
        assert min(pairs) > 0
    if name == "one-fitted-palo":
        # no rival: no margin to interpolate, and none to rescore
        assert not pairs


def test_sweep_rescores_only_the_splits_with_uncertified_pairs(screen_encodings, monkeypatch):
    # tied songs tie exactly in every split, every pair of them; a separable
    # corpus leaves no pair its bound cannot certify; on the reference shape
    # a split rescores once at most, and only the pairs it could not certify
    grid = experiments.alpha_grid(0.005)
    pairs = counting_rescore(monkeypatch)
    enc = screen_encodings["tied-songs"]
    specs = experiments._run_specs(SplitSpec(0.6, 7), 6)
    for spec in specs:
        experiments._sweep_run(enc, grid, spec)
    n_validation = len(oracles.stratified_positions(enc.corpus, specs[0])[1])
    assert pairs == [len(grid) * n_validation] * 6
    pairs.clear()
    enc = encode(SEPARABLE)
    for spec in experiments._run_specs(HALF, 6):
        experiments._sweep_run(enc, grid, spec)
    assert pairs == []
    enc = screen_encodings["reference"]
    for spec in experiments._run_specs(SplitSpec(0.85, 5), 4):
        experiments._sweep_run(enc, grid, spec)
    assert len(pairs) <= 4 and all(pairs)


@pytest.mark.parametrize(
    "name, split, n_runs", [("reference", SplitSpec(0.85, 6), 2), ("wide", SplitSpec(0.85, 4), 1)]
)
def test_sweep_hits_equal_the_float64_loop_with_a_partial_last_product(
    name, split, n_runs, screen_encodings
):
    # 142 alphas, not a multiple of the alphas of one matrix product; the
    # wide shape's products have more columns
    enc = screen_encodings[name]
    grid = experiments.alpha_grid(0.007)
    assert len(grid) == 142 and len(grid) % experiments._GEMM_ROWS
    for spec in experiments._run_specs(split, n_runs):
        assert experiments._sweep_run(enc, grid, spec).tolist() == (
            oracle_accuracies(enc, spec, grid)
        )


def count_matrix(enc):
    """The integer token counts of an encoding's entries, documents x words."""
    indptr = np.searchsorted(enc.doc, np.arange(len(enc.lengths) + 1))
    return sp.csr_matrix((enc.count, enc.word, indptr), shape=(len(enc.lengths), len(enc.words)))


def test_sweep_products_read_c_ordered_operands(screen_encodings, monkeypatch):
    # with Fortran-ordered node margins, a reference-shape split took about
    # 1.5 times as long
    operands, matmul = [], np.matmul

    def spy(*args, **kwargs):
        operands.extend(args[:2])
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    spec = experiments._run_specs(SplitSpec(0.85, 5), 1)[0]
    experiments._sweep_run(screen_encodings["reference"], experiments.alpha_grid(0.005), spec)
    assert operands
    assert all(a.flags.c_contiguous for a in operands)


def oracle_accuracies(enc, spec, grid):
    """The float64 loop's validation accuracy of one split at every alpha."""
    train, validation = map(np.asarray, oracles.stratified_positions(enc.corpus, spec))
    train = train[enc.lengths[train] > 0]
    counts = count_matrix(enc)
    reference = oracles.fit_from_counts(
        counts, enc.lengths, enc.label, len(enc.classes), train
    )
    truth = enc.label[validation]
    return [
        np.count_nonzero(
            oracles.predict_from_counts(counts, enc.lengths, validation, reference, alpha)
            == truth
        )
        / len(truth)
        for alpha in grid
    ]


def fitted_validation(enc, spec):
    """One split's fit and, as _sweep_run passes them to _sweep_margins, its
    validation documents of fitted palos: each one's place among the fitted
    classes and their rows; and the masses."""
    fit = experiments._fit_split(enc, split_positions(enc.corpus, spec))
    truth, rows, mass = experiments._validation_rows(enc, fit)
    fitted = [k for k, t in enumerate(truth) if t in fit.classes]
    true = np.array([fit.classes.tolist().index(t) for t in truth[fitted]])
    return fit, true, rows[fitted], mass


def test_screen_errors_within_the_bound_leave_the_hits(screen_encodings, monkeypatch):
    # every interpolated least margin pushed toward zero, and past it, by 0.9
    # of its bound, twice the scores' (the real error stays under 0.01 of
    # it), so every pair whose least margin lies within 1.8 score bounds of
    # zero changes its sign
    sweep_margins = experiments._sweep_margins
    flipped = []

    def adversarial(fit, true, rows, mass, alphas):
        for span, least, bound in sweep_margins(fit, true, rows, mass, alphas):
            pushed = least - np.sign(least) * 0.9 * 2 * bound
            flipped.append(np.count_nonzero(pushed * least < 0))
            yield span, pushed, bound

    monkeypatch.setattr(experiments, "_sweep_margins", adversarial)
    grid = experiments.alpha_grid(0.005)
    for name, split in (("reference", SplitSpec(0.85, 21)), ("duplicated-songs", HALF)):
        enc = screen_encodings[name]
        for spec in experiments._run_specs(split, 2):
            assert experiments._sweep_run(enc, grid, spec).tolist() == (
                oracle_accuracies(enc, spec, grid)
            )
    assert sum(flipped) > 0


@pytest.mark.parametrize("name", ["reference", "duplicated-songs", "emptied-records"])
def test_rescored_scores_equal_the_full_products(name, screen_encodings):
    enc = screen_encodings[name]
    rng = np.random.default_rng(9)
    for spec in experiments._run_specs(SplitSpec(0.6, 12), 2):
        fit = experiments._fit_split(enc, split_positions(enc.corpus, spec))
        _, rows, mass = experiments._validation_rows(enc, fit)
        alphas = np.array([1e-5, 0.005, 0.11, 0.5, 1.0])
        full = []
        for alpha in alphas:
            # predict's arithmetic, written out
            log_table = alpha + mass
            np.log(log_table, out=log_table)
            vocabulary = fit.mass[np.ix_(fit.classes, fit.in_vocabulary)]
            log_table -= np.log(alpha * vocabulary.shape[1] + vocabulary.sum(axis=1))
            scores = rows @ log_table
            scores += fit.log_prior
            full.append(scores)
        docs = np.tile(np.arange(rows.shape[0]), len(alphas))
        which = np.repeat(np.arange(len(alphas)), rows.shape[0])
        order = rng.permutation(len(docs))
        docs, which = docs[order], which[order]
        got = experiments._rescore(fit, rows, mass, docs, alphas[which])
        want = np.array([full[k][d] for d, k in zip(docs, which)])
        assert same_bits(got, want)


@pytest.mark.parametrize("name", ["reference", "wide", "duplicated-songs"])
def test_screen_scores_lie_within_their_bounds(name, screen_encodings):
    enc = screen_encodings[name]
    alphas = np.array(experiments.alpha_grid(0.01))
    worst = 0.0
    for spec in experiments._run_specs(SplitSpec(0.85, 13), 2):
        fit, true, rows, mass = fitted_validation(enc, spec)
        log_denom = experiments._log_denominators(fit, alphas)
        doc = np.arange(len(true))
        for span, least, bound in experiments._sweep_margins(fit, true, rows, mass, alphas):
            for k, alpha in enumerate(alphas[span], start=span.start):
                log_table = np.log(alpha + mass) - log_denom[k]
                exact = rows @ log_table + fit.log_prior
                # the true class's score less the best rival's
                rivals = exact.copy()
                rivals[doc, true] = -np.inf
                margin = exact[doc, true] - rivals.max(axis=1)
                # a margin's bound is twice its scores'
                margin_bound = 2 * bound[k - span.start]
                error = np.abs(least[k - span.start] - margin)
                assert (error <= margin_bound).all()
                worst = max(worst, (error / margin_bound).max())
    # the bound is not vacuous, and the real error stays far inside it
    assert 0 < worst < 0.01


INTERPOLATED_MASSES = np.array([0.0, 1e-12, 1e-3, 0.05, 1.0, 100.0, 1e4])


@pytest.mark.parametrize("step", [1.0, 0.5, 0.1, 0.005, 1e-3, 1e-5])
def test_interpolation_bound_holds_against_float64_logs(step):
    # one word of weight 1 per (word mass, class mass) pair: its score less
    # the constant is ln(alpha + m) - ln(alpha + mu)
    alphas = np.array(experiments.alpha_grid(step))
    s = np.log(alphas)
    nodes, error = experiments._sweep_nodes(s, INTERPOLATED_MASSES.max())
    # grids of 2 alphas or fewer are scored at their own; 10 alphas, at 9
    # nodes
    assert (nodes is s) == (step >= 0.5)
    # about 1,000 points of the finest grids, the last included
    points = np.unique(np.r_[0 : len(s) : max(1, len(s) // 1000), len(s) - 1])
    matrix = experiments._interpolation_matrix(nodes, s[points])

    def scores(a):
        logs = np.log(a[:, None] + INTERPOLATED_MASSES)
        return (logs[:, :, None] - logs[:, None, :]).reshape(len(a), -1)

    exact = scores(alphas[points])
    got = np.einsum("an,nm->am", matrix, scores(np.exp(nodes)))
    errors = np.abs(got - exact).max(axis=1)
    lebesgue = np.abs(matrix).sum(axis=1)
    lam = np.abs(np.log(alphas[:, None] + INTERPOLATED_MASSES)).max()
    rounding = 2.0**-44 * (1 + 6 * len(nodes) + 16) * (2 * lam + np.abs(s).max() + 2)
    assert (errors <= (1 + lebesgue) * (error + rounding)).all()
    if nodes is s:
        assert error == 0 and (lebesgue == 1).all()
    else:
        assert 0 < error < experiments._INTERPOLATION_TOLERANCE and errors.max() > 2**-40
        assert len(nodes) <= {0.1: 9, 0.005: 15, 1e-3: 19, 1e-5: 30}[step]
        # within the Lebesgue constant that chose the node count
        assert lebesgue.max() < 1 + 2 / np.pi * np.log(len(nodes))


@pytest.mark.parametrize("step", [1.0, 0.5, 0.2, 1 / 8])
@pytest.mark.parametrize(
    "name, split",
    [
        ("reference", SplitSpec(0.85, 5)),
        ("duplicated-songs", SplitSpec(0.6, 7)),
        ("emptied-records", SplitSpec(0.6, 8)),
        ("palo-without-training-side", EMPTY_PALO_RUNS),
        ("unseen-validation-words", HALF),
    ],
)
def test_sweep_hits_equal_the_float64_loop_on_grids_scored_at_their_alphas(
    name, split, step, screen_encodings
):
    # a grid of at most as many alphas as its interpolant would need nodes
    # (one alpha at step 1) is scored at its own alphas
    enc = screen_encodings[name]
    grid = experiments.alpha_grid(step)
    nodes, _ = experiments._sweep_nodes(np.log(grid), 0.0)
    assert len(nodes) == len(grid)
    for spec in experiments._run_specs(split, 2):
        assert experiments._sweep_run(enc, grid, spec).tolist() == (
            oracle_accuracies(enc, spec, grid)
        )


# ---------------------------------------------------------------------------
# essential words


def test_essential_zero_mass_words_set_the_cutoff():
    corpus = labeled_corpus({"A": ["mar mar sol"] * 4, "B": ["pena zzz"] * 4})
    report = experiments.essential_words(corpus, 0.5, 3, HALF)
    assert report.per_palo == {"A": ("mar", "sol"), "B": ("pena", "zzz")}
    assert report.counts == {"A": 2, "B": 2}
    assert report.counts == {p: len(w) for p, w in report.per_palo.items()}
    assert report.normalized == {"A": 1.0, "B": 1.0}
    assert report.n_runs == 3


def test_essential_identical_palos_get_identical_lists():
    corpus = labeled_corpus({"X": ["mar mar sol"] * 4, "Y": ["mar mar sol"] * 4})
    report = experiments.essential_words(corpus, 0.5, 3, HALF)
    assert report.per_palo["X"] == report.per_palo["Y"] == ("mar",)
    assert report.counts["X"] == report.counts["Y"] == 1


def test_essential_ranks_exact_mean_ties_in_word_order():
    # the four words of a group come together in A's songs, as often each,
    # so every run gives them one P(w|A) and they tie exactly on their mean;
    # 24 groups, so the ranking sorts more words than a short insertion sort
    rng = random.Random(31)
    groups = [[f"{letter}{g:02d}" for letter in "zyxa"] for g in range(24)]
    songs = []
    for _ in range(12):
        song = [w for group in rng.sample(groups, 6) for w in group * rng.randint(1, 3)]
        rng.shuffle(song)
        songs.append(" ".join(song))
    corpus = labeled_corpus({"A": songs, "B": ["pena noche", "noche sombra luna"] * 3})
    split = SplitSpec(0.7, 4)
    report = experiments.essential_words(corpus, 0.5, 4, split)
    ranked = report.per_palo["A"]
    tied = [group for group in groups if group[0] in ranked]
    assert len(tied) > 16
    for group in tied:
        first = ranked.index(min(group))
        assert ranked[first:first + 4] == tuple(sorted(group))
    assert report.per_palo == oracle_essential_report(corpus, 0.5, 4, split, 1e-9)[0]


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


@pytest.mark.parametrize("epsilon", [math.inf, math.nan, -math.inf, -1.0])
def test_essential_rejects_epsilons_outside_the_domain_before_any_round(
    monkeypatch, epsilon
):
    def no_encoding(*args):
        raise AssertionError("corpus encoded")

    monkeypatch.setattr(experiments, "encode", no_encoding)
    with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
        experiments.essential_words(SEPARABLE, 0.5, 3, HALF, epsilon=epsilon)


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
        train, _ = oracles.stratified_split(corpus, spec)
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
    assert report.counts == thresholds


# ---------------------------------------------------------------------------
# empty records and a palo that loses every training-side token


def oracle_confusion(corpus, alpha, split):
    """One round's confusion counts from the brute-force TF-IDF and naive
    Bayes, over the library's stratified split (the seeding contract)."""
    classes = sorted({r.palo for r in corpus.records})
    train, validation = oracles.stratified_split(corpus, split)
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
    train, _ = oracles.stratified_split(EMPTY_PALO, EMPTY_PALO_SPLIT)
    assert not any(r.text for r in train.records if r.palo == "C")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_training(EMPTY_PALO, 0.5, EMPTY_PALO_SPLIT)
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
        train, _ = oracles.stratified_split(EMPTY_PALO, spec)
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
    assert report.counts == {"A": 4, "B": 3, "C": 0}
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
    assert report.counts == thresholds


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
    assert report.counts == thresholds


def every_word_palo_corpus(seed):
    """Palo A's songs each use every word of a pool that holds all of B's
    and C's words but two, which one song of each holds alone: a run that
    validates on both songs has the pool for vocabulary, so A's least P in it
    lies above A's floor, and those two words are missing from it."""
    rng = random.Random(seed)
    pool = [f"w{j}" for j in range(10)]

    def every_word():
        words = [w for w in pool for _ in range(rng.randint(1, 3))]
        rng.shuffle(words)
        return " ".join(words)

    def some_words(*extra):
        return " ".join(rng.sample(pool, rng.randint(2, 6)) + list(extra))

    return labeled_corpus({
        "A": [every_word() for _ in range(5)],
        "B": [some_words("raro")] + [some_words() for _ in range(4)],
        "C": [some_words("unico")] + [some_words() for _ in range(4)],
    })


@pytest.mark.parametrize("seed", [90, 93, 94])
def test_essential_with_a_palo_using_every_vocabulary_word_matches_bruteforce(seed):
    corpus = every_word_palo_corpus(seed)
    split = SplitSpec(train_fraction=0.6, seed=seed)
    vocabularies = []
    for spec in experiments._run_specs(split, 6):
        train, _ = oracles.stratified_split(corpus, spec)
        vocabularies.append({w for r in train.records for w in r.text.split()})
    pool = {f"w{j}" for j in range(10)}
    # runs with the pool for vocabulary, and runs with a word beyond it
    assert pool in vocabularies and any(v > pool for v in vocabularies)
    report = experiments.essential_words(corpus, 0.5, 6, split, epsilon=1e-9)
    per_palo, counts, normalized, thresholds = oracle_essential_report(
        corpus, 0.5, 6, split, epsilon=1e-9
    )
    assert report.per_palo == per_palo
    assert report.counts == counts
    assert report.normalized == normalized
    assert report.counts == thresholds


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
    encoding = encode(corpus)
    counts = count_matrix(encoding)
    words, indptr, indices, data, lengths = sorted_vocabulary_encoding(corpus)
    assert encoding.words == words
    assert counts.indptr.tolist() == indptr
    assert counts.indices.tolist() == indices
    assert counts.data.tolist() == data
    assert encoding.lengths.tolist() == lengths
    # the tables the rounds read in place of a term-frequency matrix
    assert encoding.indptr.tolist() == indptr
    assert encoding.column.tolist() == indices
    rows = np.repeat(np.arange(len(lengths)), np.diff(indptr))
    assert encoding.tf.tolist() == [
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
    runs = SplitSpec(0.6, seed)
    subsets = 0
    for corpus, split in (
        (with_empty_records(mixed_corpus(seed), seed), runs),
        (
            with_empty_records(
                random_labeled_corpus(
                    rng, n_palos=4, docs_per_palo=(5, 12), pool_size=60, doc_len=(1, 40)
                ),
                seed,
                share=0.2,
            ),
            runs,
        ),
        # palo C's training side holds only emptied songs
        (EMPTY_PALO, EMPTY_PALO_RUNS),
    ):
        enc = encode(corpus)
        counts = count_matrix(enc)
        assert not all(enc.lengths)
        for spec in experiments._run_specs(split, 3 if corpus is EMPTY_PALO else 10):
            fit = experiments._fit_split(enc, split_positions(enc.corpus, spec))
            train, validation = map(np.asarray, oracles.stratified_positions(corpus, spec))
            train = train[enc.lengths[train] > 0]
            reference = oracles.fit_from_counts(
                counts, enc.lengths, enc.label, len(enc.classes), train
            )
            position, idf, classes, mass, log_prior = reference
            assert same_bits(fit.in_vocabulary, position >= 0)
            assert fit.size == len(idf)
            assert same_bits(fit.idf[fit.in_vocabulary], idf)
            assert not fit.idf[~fit.in_vocabulary].any()
            assert same_bits(fit.classes, classes)
            # the full-width masses: the compressed ones, and 0.0 elsewhere
            fitted = np.zeros_like(fit.mass, dtype=bool)
            fitted[np.ix_(fit.classes, fit.in_vocabulary)] = True
            assert same_bits(fit.mass[fitted].reshape(mass.shape), mass)
            assert not fit.mass[~fitted].any()
            assert same_bits(fit.totals, mass.sum(axis=1))
            assert same_bits(fit.least, mass.min(axis=1))
            assert same_bits(fit.log_prior, log_prior)
            assert same_bits(fit.validation, validation)
            subsets += len(fit.classes) < len(enc.classes)
            truth, rows, mass = experiments._validation_rows(enc, fit)
            assert same_bits(truth, enc.label[validation])
            for alpha in (1e-6, 0.11, 0.5, 1.0, 7.0):
                scores = experiments._scores(fit, rows, mass, alpha)
                assert same_bits(
                    fit.classes[np.argmax(scores, axis=1)],
                    oracles.predict_from_counts(
                        counts, enc.lengths, validation, reference, alpha
                    ),
                )
    assert subsets == 3  # every EMPTY_PALO run fits two of three classes


@pytest.mark.parametrize("seed", [1, 2])
def test_round_masses_equal_the_masses_of_their_tfidf_rows(seed):
    # a round norms each row as vectorize.tfidf does, so its class masses are
    # those of the TF-IDF matrix of its training records, bit for bit
    corpus = preprocess_corpus(generated_corpus(seed, counts=(60, 40, 25, 10)),
                               default_config())
    enc = encode(corpus)
    assert not all(enc.lengths)
    for spec in experiments._run_specs(SplitSpec(0.85, seed), 5):
        fit = experiments._fit_split(enc, split_positions(enc.corpus, spec))
        train = enc.lengths > 0
        train[fit.validation] = False
        positions = np.flatnonzero(train)
        records = Corpus(corpus.records[i] for i in positions)
        vocab = build_vocabulary(records)
        assert vocab.words == tuple(w for w, kept in zip(enc.words, fit.in_vocabulary) if kept)
        matrix = tfidf(records, vocab).matrix
        label = np.searchsorted(fit.classes, enc.label[positions])
        cell = np.repeat(label * len(vocab.words), np.diff(matrix.indptr)) + matrix.indices
        mass = np.bincount(cell, weights=matrix.data, minlength=len(fit.classes) * fit.size)
        mass = mass.reshape(len(fit.classes), fit.size)
        assert same_bits(fit.mass[np.ix_(fit.classes, fit.in_vocabulary)], mass)
        assert same_bits(fit.totals, mass.sum(axis=1))


@pytest.mark.parametrize("seed, empty_palo", [(1, False), (2, True)])
def test_the_trained_model_is_the_fit_of_the_tfidf_of_the_records_with_tokens(
    seed, empty_palo
):
    # train's model comes from the rounds' encoding, fitted with nothing held
    # out; a palo whose every song preprocesses to nothing has no class
    raw = generated_corpus(seed, counts=(12, 8, 5, 2))
    if empty_palo:
        raw = Corpus([*raw.records, *(LyricRecord(f"v{i}", text, "vacío")
                                      for i, text in enumerate(["de la que", "el y"]))])
    processed = preprocess_corpus(raw, default_config())
    full = Corpus(r for r in processed.records if r.text.split())
    assert len(full) < len(processed)
    assert ("vacío" in processed.palos) == empty_palo and "vacío" not in full.palos
    matrix = tfidf(full, build_vocabulary(full))
    for alpha in (0.11, 1.0):
        runs, model = experiments.train_and_fit(processed, alpha, 3, HALF)
        want = mnb.fit(matrix, [r.palo for r in full.records], alpha)
        assert model.classes == want.classes == tuple(sorted(full.palos))
        assert list(model.priors.items()) == list(want.priors.items())
        assert model.vocab == want.vocab
        assert model.word_logprob.tobytes() == want.word_logprob.tobytes()
        rounds = experiments.run_trainings(processed, alpha, 3, HALF)
        assert [(r.seed, r.confusion.tolist()) for r in runs] == [
            (r.seed, r.confusion.tolist()) for r in rounds
        ]


FAULTS_SCRIPT = """
import os, random, resource, sys
from lexpalo import experiments
from lexpalo.corpus_io import Corpus, LyricRecord, SplitSpec

def faulting_round(enc, alpha, spec):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    experiments._training_run(enc, alpha, spec)
    return os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

n_songs, n_words = map(int, sys.argv[1:])
rng = random.Random(3)
words = [f"w{i}" for i in range(n_words)]
corpus = Corpus(LyricRecord(f"s{i}", " ".join(rng.choices(words, k=62)), f"p{i % 8}")
                for i in range(n_songs))
enc = experiments.encode(corpus)
specs = experiments._run_specs(SplitSpec(0.85, 1), 16)
for threads in (1, 2):
    seen, later = set(), []
    for pid, faults in experiments._map_runs(enc, faulting_round, 0.5, specs, threads):
        if pid in seen:
            later.append(faults)
        seen.add(pid)
    print(len(seen), *later)
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs fork and affinity")
def test_rounds_reuse_their_memory_serially_and_in_workers():
    # Rounds that allocated their per-entry arrays afresh made glibc grow and
    # trim the heap at every round, in a fresh process as in a forked worker:
    # about 700 minor page faults a round here, and training rounds at half
    # speed. The reference shape's 136k entries in 8 palos, over 5,000 words,
    # so that the per-entry arrays outweigh the class masses. Each process's
    # first round makes its buffers; the others should fault almost never
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT, "2200", "5000"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    serial, pooled = (list(map(int, line.split())) for line in done.stdout.splitlines())
    assert serial[0] == 1 and len(serial) == 16
    if len(os.sched_getaffinity(0)) > 1:
        assert pooled[0] == 2 and len(pooled) == 15
    for processes, *faults in (serial, pooled):
        # a round may fault while a heap settles; the typical round does not
        assert sorted(faults)[len(faults) // 2] < 100, (processes, faults)
        assert np.mean(np.array(faults) < 100) >= 0.75, (processes, faults)


# ---------------------------------------------------------------------------
# alpha domain


BAD_ALPHAS = [0.0, -0.5, math.nan, math.inf, -math.inf, 1e308]


@pytest.mark.parametrize("alpha", BAD_ALPHAS)
def test_experiments_reject_alphas_outside_the_domain(alpha):
    corpus = mixed_corpus()
    with pytest.raises(AlphaNonPositiveError, match="finite and > 0"):
        run_training(corpus, alpha, HALF)
    with pytest.raises(AlphaNonPositiveError):
        experiments.run_trainings(corpus, alpha, 2, HALF, threads=2)
    with pytest.raises(AlphaNonPositiveError):
        experiments.essential_words(corpus, alpha, 2, HALF)
