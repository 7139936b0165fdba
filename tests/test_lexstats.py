"""Lexical profiles, windowed sTTR, palo-exclusive words, Zipf/Heaps fits."""

import math
import random

import numpy as np
import pytest

from lexpalo.corpus_io import Corpus
from lexpalo.errors import (
    DegenerateFitError,
    EmptyDocumentError,
    WindowTooLongError,
)
from lexpalo.lexstats import (
    STTR_MAX_WINDOWS,
    hapax_report,
    heaps_curve,
    profile,
    ranked_frequencies,
    sttr,
    zipf_fit,
)

from helpers import corpus, corpus_from_texts, labeled_corpus, record


# ---------------------------------------------------------------------------
# profile


def test_profile_counts_tokens_types_and_ttr():
    p = profile(["a", "b", "a"])
    assert (p.tokens, p.types) == (3, 2)
    assert p.ttr == 2 / 3


def test_profile_all_distinct_tokens_has_ttr_one():
    assert profile(["x", "y", "z"]).ttr == 1.0


def test_profile_single_repeated_token_hits_lower_bound():
    p = profile(["la"] * 8)
    assert p.ttr == 1 / 8


def test_profile_rejects_empty_document():
    with pytest.raises(EmptyDocumentError):
        profile([])


def test_profile_ttr_bounds_on_random_documents():
    rng = random.Random(10)
    for _ in range(50):
        doc = [f"w{rng.randint(0, 12)}" for _ in range(rng.randint(1, 60))]
        p = profile(doc)
        assert 1 / p.tokens <= p.ttr <= 1.0
        assert (p.ttr == 1.0) == (len(set(doc)) == len(doc))


# ---------------------------------------------------------------------------
# sTTR


def test_sttr_full_window_is_whole_document_ttr_without_error():
    doc = ["a", "b", "a", "c"]
    result = sttr(doc, window_length=4, n_windows=50, seed=123)
    assert result.mean == profile(doc).ttr
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


def test_sttr_rejects_oversized_window():
    with pytest.raises(WindowTooLongError):
        sttr(["a", "b"], window_length=3, n_windows=2, seed=0)


def test_sttr_rejects_window_counts_beyond_the_cap(monkeypatch):
    def no_draws(*args):
        raise AssertionError("windows drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for n_windows in (STTR_MAX_WINDOWS + 1, 100_000_000_000):
        with pytest.raises(ValueError, match="n_windows"):
            sttr(["a", "b", "c"], 2, n_windows, seed=0)


def test_sttr_rejects_bad_parameters():
    with pytest.raises(EmptyDocumentError):
        sttr([], 1, 1, seed=0)
    with pytest.raises(ValueError):
        sttr(["a", "b"], 0, 5, seed=0)
    with pytest.raises(ValueError):
        sttr(["a", "b"], 1, 0, seed=0)


# ---------------------------------------------------------------------------
# palo-exclusive vocabulary


def test_hapax_disjoint_palos_make_every_song_fully_exclusive():
    c = labeled_corpus(
        {"A": ["uno dos", "dos tres"], "B": ["cuatro cinco", "cinco"]}
    )
    report = hapax_report(c)
    assert all(ratio == 1.0 for _, ratio in report.per_song)
    assert report.per_palo_unique["A"] == frozenset({"uno", "dos", "tres"})
    assert report.per_palo_unique["B"] == frozenset({"cuatro", "cinco"})


def test_hapax_identical_vocabularies_have_no_exclusive_words():
    c = labeled_corpus({"A": ["mar sol"], "B": ["sol mar"]})
    report = hapax_report(c)
    assert all(ratio == 0.0 for _, ratio in report.per_song)
    assert all(not u for u in report.per_palo_unique.values())


def test_hapax_mixed_example_counts_per_song_types():
    c = corpus(
        ("s1", "mar mar sal", "A"),
        ("s2", "mar luna", "B"),
    )
    report = hapax_report(c)
    ratios = dict(report.per_song)
    # s1 types {mar, sal}: only "sal" is A-exclusive -> 1/2
    assert ratios["s1"] == 0.5
    assert ratios["s2"] == 0.5  # {mar, luna}: only "luna" is B-exclusive


def test_hapax_skips_songs_without_tokens():
    c = Corpus([record("s1", "mar", "A"), record("s2", "", "A"),
                record("s3", "sol", "B")])
    report = hapax_report(c)
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
        report = hapax_report(c)
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
    full = hapax_report(c)
    reduced = hapax_report(Corpus(r for r in c.records if r.palo != "C"))
    for palo in ("A", "B"):
        assert full.per_palo_unique[palo] <= reduced.per_palo_unique[palo]


def test_hapax_counts_overlap_with_essential_lists():
    c = labeled_corpus({"A": ["uno dos tres"], "B": ["cuatro"]})
    report = hapax_report(
        c, essential={"A": ["dos", "tres", "cinco"], "B": ["mar"]}
    )
    assert report.shared_with_essential == {"A": 2, "B": 0}


# ---------------------------------------------------------------------------
# rank-frequency and Zipf


def test_ranked_frequencies_sorts_by_count_then_word():
    c = corpus_from_texts(["b b a a c"])
    assert ranked_frequencies(c) == [("a", 2), ("b", 2), ("c", 1)]


def test_zipf_exact_power_law_recovers_slope_minus_one():
    text = " ".join(
        ["w1"] * 240 + ["w2"] * 120 + ["w3"] * 80 + ["w4"] * 60
    )
    fit = zipf_fit(corpus_from_texts([text]), fit_range=(1, 4))
    assert abs(fit.exponent - (-1.0)) < 1e-9
    assert fit.r_squared > 1 - 1e-9
    assert fit.fit_range == (1, 4)
    assert abs(fit.intercept - math.log(240)) < 1e-9


def test_zipf_small_vocabulary_falls_back_to_full_range():
    text = " ".join(["w1"] * 240 + ["w2"] * 120 + ["w3"] * 80 + ["w4"] * 60)
    fit = zipf_fit(corpus_from_texts([text]))
    assert fit.fit_range == (1, 4)


def test_zipf_explicit_range_is_clamped_to_vocabulary():
    text = " ".join(["w1"] * 8 + ["w2"] * 4 + ["w3"] * 2)
    fit = zipf_fit(corpus_from_texts([text]), fit_range=(1, 50))
    assert fit.fit_range == (1, 3)


def test_zipf_rejects_invalid_ranges():
    text = " ".join(["w1"] * 8 + ["w2"] * 4 + ["w3"] * 2)
    c = corpus_from_texts([text])
    with pytest.raises(ValueError):
        zipf_fit(c, fit_range=(0, 3))
    with pytest.raises(ValueError):
        zipf_fit(c, fit_range=(3, 3))
    with pytest.raises(ValueError):
        zipf_fit(c, fit_range=(3, 50))  # clamps to (3, 3): too narrow


def test_zipf_equal_frequencies_are_degenerate():
    with pytest.raises(DegenerateFitError):
        zipf_fit(corpus_from_texts(["a b a b"]))


def test_zipf_needs_two_types():
    with pytest.raises(DegenerateFitError):
        zipf_fit(corpus_from_texts(["solo solo solo"]))


# ---------------------------------------------------------------------------
# Heaps


def test_heaps_single_repeated_token_has_flat_curve():
    c = corpus_from_texts(["la la la la la", "la la la"])
    points, fit = heaps_curve(c, seed=1)
    assert all(v == 1 for _, v in points)
    assert abs(fit.exponent) < 1e-9
    assert fit.r_squared == 1.0


def test_heaps_all_distinct_tokens_grow_linearly():
    texts = [
        " ".join(f"w{r}_{i}" for i in range(20)) for r in range(10)
    ]
    points, fit = heaps_curve(corpus_from_texts(texts), seed=5)
    assert all(v == l for l, v in points)
    assert abs(fit.exponent - 1.0) < 1e-9


def test_heaps_points_are_monotone_and_end_at_totals():
    rng = random.Random(6)
    texts = [
        " ".join(f"w{rng.randint(0, 50)}" for _ in range(30))
        for _ in range(8)
    ]
    c = corpus_from_texts(texts)
    points, _ = heaps_curve(c, seed=3)
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
    assert heaps_curve(c, seed=11) == heaps_curve(c, seed=11)


def test_heaps_rejects_tokenless_corpus():
    c = Corpus([record("r1", "", "A")])
    with pytest.raises(EmptyDocumentError):
        heaps_curve(c, seed=0)


def test_heaps_single_token_cannot_be_fit():
    with pytest.raises(DegenerateFitError):
        heaps_curve(corpus_from_texts(["unico"]), seed=0)
