"""Lexical profiles, windowed sTTR, palo-exclusive words, Zipf/Heaps fits."""

import math
import random

import numpy as np
import pytest

from lexpalo.corpus_io import Corpus, token_ids
from lexpalo.errors import DegenerateFitError, EmptyDocumentError
from lexpalo.lexstats import (
    STTR_MAX_WINDOWS,
    hapax_report,
    heaps_curve,
    profile_and_sttr_rows,
    ranked_frequencies,
    _previous_occurrences,
    _sttr_of,
    zipf_fit,
)
from lexpalo.seeding import derive_seed

import oracles
from helpers import (
    corpus,
    corpus_from_texts,
    generated_corpus,
    labeled_corpus,
    palo_tokens,
    random_labeled_corpus,
    record,
)


# ---------------------------------------------------------------------------
# profile


def profile(document):
    """(L, |V|, TTR) of one token list, from the profile row of a one-song
    corpus."""
    profile_rows, _ = profile_and_sttr_rows(
        token_ids(corpus_from_texts([" ".join(document)])), 1, seed=0
    )
    return tuple(profile_rows[0][1:])


def test_profile_counts_tokens_types_and_ttr():
    assert profile(["a", "b", "a"]) == (3, 2, 2 / 3)


def test_profile_all_distinct_tokens_has_ttr_one():
    assert profile(["x", "y", "z"])[2] == 1.0


def test_profile_single_repeated_token_hits_lower_bound():
    assert profile(["la"] * 8)[2] == 1 / 8


def test_profile_rejects_empty_document():
    with pytest.raises(EmptyDocumentError):
        profile([])


def test_profile_ttr_bounds_on_random_documents():
    rng = random.Random(10)
    for _ in range(50):
        doc = [f"w{rng.randint(0, 12)}" for _ in range(rng.randint(1, 60))]
        tokens, _, ttr = profile(doc)
        assert 1 / tokens <= ttr <= 1.0
        assert (ttr == 1.0) == (len(set(doc)) == len(doc))


# ---------------------------------------------------------------------------
# sTTR


def word_ids(tokens):
    """A token list as word ids in order of first appearance."""
    index = {}
    return np.array([index.setdefault(t, len(index)) for t in tokens], np.int32)


def sttr(document, window_length, n_windows, seed):
    """sTTR of one token list, drawn as profile_and_sttr_rows draws it."""
    return _sttr_of(
        _previous_occurrences(word_ids(document)), window_length, n_windows, seed
    )


def test_sttr_full_window_is_whole_document_ttr_without_error():
    doc = ["a", "b", "a", "c"]
    result = sttr(doc, window_length=4, n_windows=50, seed=123)
    assert result.mean == profile(doc)[2]
    assert result.stderr == 0.0
    assert result.n_windows == 1
    assert result.window_length == 4


def test_sttr_full_window_ignores_seed():
    doc = ["a", "b", "b", "c", "a"]
    assert sttr(doc, 5, 50, seed=1) == sttr(doc, 5, 50, seed=2)


def test_sttr_degenerate_vocabulary_hits_window_floor():
    result = sttr(["la"] * 100, window_length=10, n_windows=7, seed=0)
    # every window TTR is exactly 0.1; the mean/stderr reductions leave
    # only accumulation noise behind
    assert result.mean == pytest.approx(1 / 10, abs=1e-12)
    assert result.stderr == pytest.approx(0.0, abs=1e-15)


def test_sttr_is_deterministic_per_seed():
    doc = [f"w{i % 17}" for i in range(300)]
    assert sttr(doc, 50, 20, seed=9) == sttr(doc, 50, 20, seed=9)


def test_sttr_matches_a_replay_of_its_sampling_protocol():
    rng = random.Random(31)
    doc = [f"w{rng.randint(0, 30)}" for _ in range(400)]
    window, n, seed = 60, 25, 77
    result = sttr(doc, window, n, seed=seed)

    starts = np.random.default_rng(seed).integers(0, len(doc) - window + 1, size=n)
    ttrs = np.array(
        [len(set(doc[s : s + window])) / window for s in starts]
    )
    assert result.mean == float(ttrs.mean())
    assert result.stderr == float(np.std(ttrs, ddof=1) / math.sqrt(n))
    assert min(ttrs) <= result.mean <= max(ttrs)
    assert result.n_windows == n


def test_sttr_mean_lies_within_window_extremes_on_random_docs():
    rng = random.Random(404)
    for trial in range(25):
        length = rng.randint(30, 200)
        doc = [f"w{rng.randint(0, 25)}" for _ in range(length)]
        window = rng.randint(5, length - 1)
        result = sttr(doc, window, rng.randint(2, 30), seed=trial)
        assert 1 / window <= result.mean <= 1.0
        assert result.stderr >= 0.0


def test_sttr_equals_the_set_per_window_oracle():
    rng = random.Random(2718)
    cases = [(["solo"], 1), (["solo"] * 9, 4), (["a", "b"], 2), (["a", "b"], 1)]
    for _ in range(60):
        length = rng.randint(1, 300)
        doc = [f"w{rng.randint(0, rng.randint(0, 40))}" for _ in range(length)]
        cases.append((doc, rng.choice((1, length, rng.randint(1, length)))))
    for trial, (doc, window) in enumerate(cases):
        for n_windows in (1, 2, 37):
            result = sttr(doc, window, n_windows, seed=trial)
            assert (result.mean, result.stderr) == oracles.sttr(
                doc, window, n_windows, seed=trial
            ), (doc, window, n_windows)


def test_previous_occurrences_stream_from_any_iterable():
    rng = random.Random(31)
    for _ in range(20):
        doc = [f"w{rng.randint(0, 9)}" for _ in range(rng.randint(0, 60))]
        expected = [
            max((j for j in range(i) if doc[j] == word), default=-1)
            for i, word in enumerate(doc)
        ]
        ids = word_ids(doc)
        for doc_ids in (ids, ids.astype(np.int64), ids * 7 + 3):
            prev = _previous_occurrences(doc_ids)
            assert prev.dtype == np.int64
            assert prev.tolist() == expected


def test_sttr_of_previous_occurrences_equals_sttr():
    rng = random.Random(32)
    for trial in range(30):
        c = random_labeled_corpus(rng)
        _, sttr_rows = profile_and_sttr_rows(token_ids(c), 9, seed=trial)
        prevs = [
            (palo, np.array(oracles.previous_occurrences(palo_tokens(c, [palo]))))
            for palo in sorted(c.palos)
        ]
        window = min(len(prev) for _, prev in prevs)
        prevs.append(
            ("__corpus__", np.array(oracles.previous_occurrences(palo_tokens(c, c.palos))))
        )
        assert len(sttr_rows) == len(prevs)
        for row, (label, prev) in zip(sttr_rows, prevs):
            res = _sttr_of(prev, window, 9, seed=derive_seed(trial, "sttr", label))
            assert row == [label, res.mean, res.stderr, window, res.n_windows]


def test_sttr_window_never_exceeds_the_shortest_palo():
    c = labeled_corpus({"A": ["a b c d e", "f g"], "B": ["a b a"], "C": ["x y z w"]})
    profile_rows, sttr_rows = profile_and_sttr_rows(token_ids(c), 5, seed=0)
    shortest = min(row[1] for row in profile_rows)
    assert shortest == 3
    assert [row[3] for row in sttr_rows] == [shortest] * len(sttr_rows)
    b_row = next(row for row in sttr_rows if row[0] == "B")
    assert b_row == ["B", 2 / 3, 0.0, 3, 1]


def test_sttr_rejects_window_counts_beyond_the_cap(monkeypatch):
    def no_draws(*args):
        raise AssertionError("windows drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    c = labeled_corpus({"A": ["a b c"], "B": ["a b"]})
    for n_windows in (STTR_MAX_WINDOWS + 1, 100_000_000_000):
        with pytest.raises(ValueError, match="n_windows"):
            profile_and_sttr_rows(token_ids(c), n_windows, seed=0)


def test_sttr_rejects_bad_parameters():
    with pytest.raises(EmptyDocumentError):
        profile_and_sttr_rows(
            token_ids(labeled_corpus({"A": ["a b"], "B": [""]})), 1, seed=0
        )
    with pytest.raises(ValueError):
        profile_and_sttr_rows(token_ids(labeled_corpus({"A": ["a b"]})), 0, seed=0)


# ---------------------------------------------------------------------------
# palo-exclusive vocabulary


def test_hapax_disjoint_palos_make_every_song_fully_exclusive():
    c = labeled_corpus(
        {"A": ["uno dos", "dos tres"], "B": ["cuatro cinco", "cinco"]}
    )
    report = hapax_report(token_ids(c))
    assert all(ratio == 1.0 for _, ratio in report.per_song)
    assert report.per_palo_unique["A"] == frozenset({"uno", "dos", "tres"})
    assert report.per_palo_unique["B"] == frozenset({"cuatro", "cinco"})


def test_hapax_identical_vocabularies_have_no_exclusive_words():
    c = labeled_corpus({"A": ["mar sol"], "B": ["sol mar"]})
    report = hapax_report(token_ids(c))
    assert all(ratio == 0.0 for _, ratio in report.per_song)
    assert all(not u for u in report.per_palo_unique.values())


def test_hapax_mixed_example_counts_per_song_types():
    c = corpus(
        ("s1", "mar mar sal", "A"),
        ("s2", "mar luna", "B"),
    )
    report = hapax_report(token_ids(c))
    ratios = dict(report.per_song)
    # s1 types {mar, sal}: only "sal" is A-exclusive -> 1/2
    assert ratios["s1"] == 0.5
    assert ratios["s2"] == 0.5  # {mar, luna}: only "luna" is B-exclusive


def test_hapax_skips_songs_without_tokens():
    c = Corpus([record("s1", "mar", "A"), record("s2", "", "A"),
                record("s3", "sol", "B")])
    report = hapax_report(token_ids(c))
    assert [sid for sid, _ in report.per_song] == ["s1", "s3"]


def test_hapax_unique_sets_are_pairwise_disjoint_and_bounded():
    rng = random.Random(2)
    for _ in range(20):
        c = labeled_corpus(
            {
                p: [
                    " ".join(
                        f"w{rng.randint(0, 40)}"
                        for _ in range(rng.randint(1, 15))
                    )
                    for _ in range(rng.randint(1, 5))
                ]
                for p in ("A", "B", "C")
            }
        )
        report = hapax_report(token_ids(c))
        sets = list(report.per_palo_unique.values())
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert not sets[i] & sets[j]
        all_types = {t for r in c.records for t in r.text.split()}
        assert sum(len(s) for s in sets) <= len(all_types)


def test_hapax_removing_a_palo_can_only_grow_other_palos_sets():
    rng = random.Random(3)
    c = labeled_corpus(
        {
            p: [
                " ".join(f"w{rng.randint(0, 30)}" for _ in range(10))
                for _ in range(4)
            ]
            for p in ("A", "B", "C")
        }
    )
    full = hapax_report(token_ids(c))
    reduced = hapax_report(token_ids(Corpus(r for r in c.records if r.palo != "C")))
    for palo in ("A", "B"):
        assert full.per_palo_unique[palo] <= reduced.per_palo_unique[palo]


def test_hapax_counts_overlap_with_essential_lists():
    c = labeled_corpus({"A": ["uno dos tres"], "B": ["cuatro"]})
    report = hapax_report(
        token_ids(c), essential={"A": ["dos", "tres", "cinco"], "B": ["mar"]}
    )
    assert report.shared_with_essential == {"A": 2, "B": 0}


# ---------------------------------------------------------------------------
# rank-frequency and Zipf


def ranked_of(texts):
    return ranked_frequencies(token_ids(corpus_from_texts(texts)))


def test_ranked_frequencies_sorts_by_count_then_word():
    c = corpus_from_texts(["b b a a c"])
    assert ranked_frequencies(token_ids(c)) == [("a", 2), ("b", 2), ("c", 1)]


def test_zipf_exact_power_law_recovers_slope_minus_one():
    text = " ".join(
        ["w1"] * 240 + ["w2"] * 120 + ["w3"] * 80 + ["w4"] * 60
    )
    fit = zipf_fit(ranked_of([text]))
    assert abs(fit.exponent - (-1.0)) < 1e-9
    assert fit.r_squared > 1 - 1e-9
    assert fit.fit_range == (1, 4)
    assert abs(fit.intercept - math.log(240)) < 1e-9


def test_zipf_small_vocabulary_falls_back_to_full_range():
    text = " ".join(["w1"] * 240 + ["w2"] * 120 + ["w3"] * 80 + ["w4"] * 60)
    fit = zipf_fit(ranked_of([text]))
    assert fit.fit_range == (1, 4)


def test_zipf_equal_frequencies_are_degenerate():
    with pytest.raises(DegenerateFitError):
        zipf_fit(ranked_of(["a b a b"]))


def test_zipf_needs_two_types():
    with pytest.raises(DegenerateFitError):
        zipf_fit(ranked_of(["solo solo solo"]))


# ---------------------------------------------------------------------------
# Heaps


def test_heaps_single_repeated_token_has_flat_curve():
    c = corpus_from_texts(["la la la la la", "la la la"])
    points, fit = heaps_curve(token_ids(c), seed=1)
    assert all(v == 1 for _, v in points)
    assert abs(fit.exponent) < 1e-9
    assert fit.r_squared == 1.0


def test_heaps_all_distinct_tokens_grow_linearly():
    texts = [
        " ".join(f"w{r}_{i}" for i in range(20)) for r in range(10)
    ]
    points, fit = heaps_curve(token_ids(corpus_from_texts(texts)), seed=5)
    assert all(v == l for l, v in points)
    assert abs(fit.exponent - 1.0) < 1e-9


def test_heaps_points_are_monotone_and_end_at_totals():
    rng = random.Random(6)
    texts = [
        " ".join(f"w{rng.randint(0, 50)}" for _ in range(30))
        for _ in range(8)
    ]
    c = corpus_from_texts(texts)
    points, _ = heaps_curve(token_ids(c), seed=3)
    ls = [l for l, _ in points]
    vs = [v for _, v in points]
    assert ls == sorted(set(ls))
    assert vs == sorted(vs)
    total_tokens = sum(len(t.split()) for t in texts)
    total_types = len({tok for t in texts for tok in t.split()})
    assert points[-1] == (total_tokens, total_types)


def test_heaps_is_deterministic_per_seed():
    rng = random.Random(7)
    texts = [
        " ".join(f"w{rng.randint(0, 9)}" for _ in range(12)) for _ in range(6)
    ]
    c = corpus_from_texts(texts)
    assert heaps_curve(token_ids(c), seed=11) == heaps_curve(token_ids(c), seed=11)


def test_heaps_rejects_tokenless_corpus():
    c = Corpus([record("r1", "", "A")])
    with pytest.raises(EmptyDocumentError):
        heaps_curve(token_ids(c), seed=0)


def test_heaps_single_token_cannot_be_fit():
    with pytest.raises(DegenerateFitError):
        heaps_curve(token_ids(corpus_from_texts(["unico"])), seed=0)


@pytest.mark.parametrize("n_checkpoints", [0, -1])
def test_heaps_rejects_fewer_than_one_checkpoint(n_checkpoints):
    c = token_ids(corpus_from_texts(["a b c", "a d"]))
    with pytest.raises(ValueError, match="n_checkpoints"):
        heaps_curve(c, seed=0, n_checkpoints=n_checkpoints)


def test_heaps_points_equal_the_token_stream_oracle():
    rng = random.Random(33)
    corpora = [generated_corpus(seed) for seed in (1, 2)]
    corpora += [
        random_labeled_corpus(rng, n_palos=3, pool_size=30, doc_len=(0, 40))
        for _ in range(20)
    ]
    # a one-token record, and empty records around the first marks
    corpora.append(corpus(("a", ""), ("b", "solo"), ("c", ""), ("d", "x y x")))
    for c in corpora:
        texts = [r.text for r in c.records]
        for seed, n_checkpoints in ((0, 200), (5, 7), (9, 2)):
            points, _ = heaps_curve(token_ids(c), seed, n_checkpoints)
            assert points == oracles.heaps_points(texts, seed, n_checkpoints)
