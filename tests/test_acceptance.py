"""Acceptance gate: one test per guaranteed behavior, in contract order.

The first eight tests always run: they pit the library against independent
brute-force computation, closed-form hand examples, synthetic corpora with
known exponents, and byte-level determinism checks. The final six run only
when ``LEXPALO_REFERENCE_CORPUS`` points at the full labeled flamenco-lyrics
corpus; they verify the headline analysis numbers on it and skip otherwise.
"""

import json
import os
import random
import time
import tracemalloc
from dataclasses import replace
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from lexpalo import cli, experiments, mnb
from lexpalo.corpus_io import (
    Corpus,
    SplitSpec,
    filter_top_palos,
    load_corpus,
    token_ids,
)
from lexpalo.genre_graph import (
    DistanceMatrix,
    distance_matrix,
    hierarchical_cluster,
    minimum_spanning_tree,
)
from lexpalo.lexstats import (
    hapax_report,
    heaps_curve,
    profile_and_sttr_rows,
    ranked_frequencies,
    _previous_occurrences,
    _sttr_of,
    zipf_fit,
)
from lexpalo.preprocess import (
    apply_concat_map,
    default_config,
    filter_tokens,
    preprocess_corpus,
    preprocess_with_decisions,
)
from lexpalo.seeding import derive_seed
from lexpalo.vectorize import build_vocabulary, encode, genre_vectors, tfidf, tfidf_row

import oracles
from helpers import (
    corpus,
    distance,
    empty_rows,
    generated_corpus,
    random_labeled_corpus,
    random_spanish_corpus,
    record,
)


# ---------------------------------------------------------------------------
# classifier vs. brute force on an exhaustive family of tiny corpora


def label_patterns(n_docs, max_classes=3):
    """All label assignments up to class renaming (restricted growth)."""
    names = "XYZ"
    patterns = []

    def grow(prefix, n_used):
        if len(prefix) == n_docs:
            patterns.append(tuple(names[i] for i in prefix))
            return
        for c in range(min(n_used + 1, max_classes)):
            grow(prefix + [c], max(n_used, c + 1))

    grow([], 0)
    return patterns


def docs_over(alphabet, max_len):
    return [
        " ".join(combo)
        for length in range(1, max_len + 1)
        for combo in combinations_with_replacement(alphabet, length)
    ]


def test_classifier_matches_bruteforce_on_exhaustive_small_family():
    start = time.perf_counter()
    families = [
        (2, docs_over("abcde", 2)),  # up to 5 types, all 2-doc corpora
        (3, docs_over("ab", 2)),  # all 3-doc corpora over a 2-type pool
        (4, docs_over("ab", 2)),  # all 4-doc corpora over a 2-type pool
    ]
    checked = 0
    for n_docs, pool in families:
        patterns = label_patterns(n_docs)
        for texts in combinations_with_replacement(pool, n_docs):
            token_lists = [t.split() for t in texts]
            rows, words, df = oracles.tfidf_rows(token_lists)
            base = corpus(*[(f"d{i}", t, "X") for i, t in enumerate(texts)])
            vocab = build_vocabulary(base)
            matrix = tfidf(base, vocab)
            assert vocab.words == tuple(words)
            probes = token_lists + [["a", "zzz"], []]
            lib_rows = [tfidf_row(p, vocab) for p in probes]
            oracle_rows = [
                oracles.tfidf_row(p, words, df, n_docs) for p in probes
            ]
            for labels in patterns:
                for alpha in (0.1, 0.5, 1.0):
                    model = mnb.fit(matrix, list(labels), alpha)
                    om = oracles.mnb_fit(rows, list(labels), alpha)
                    assert model.classes == tuple(om["classes"])
                    for k, cls in enumerate(model.classes):
                        assert model.priors[cls] == pytest.approx(
                            om["priors"][cls], rel=1e-12, abs=1e-12
                        )
                        assert np.allclose(
                            np.exp(model.word_logprob[k]),
                            om["word_prob"][cls],
                            rtol=1e-12,
                            atol=1e-12,
                        )
                    for lib_row, oracle_row in zip(lib_rows, oracle_rows):
                        got = mnb.score(model, lib_row)
                        want, predicted = oracles.mnb_score(om, oracle_row)
                        for cls in model.classes:
                            assert got.scores[cls] == pytest.approx(
                                want[cls], rel=1e-12, abs=1e-12
                            )
                        if got.predicted != predicted:
                            # exact mathematical ties can round to different
                            # argmaxes per route; the gap must then sit below
                            # the comparison tolerance
                            gap = abs(
                                got.scores[got.predicted]
                                - got.scores[predicted]
                            )
                            bound = 1e-12 * max(
                                1.0, abs(got.scores[predicted])
                            )
                            assert gap <= bound, (texts, labels, alpha)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 4725
    assert elapsed < 10.0, f"family took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# tf-idf row norms and the two-document hand example


def test_tfidf_rows_are_unit_norm_and_match_hand_computation():
    c = corpus(("d1", "a a b", "X"), ("d2", "b", "X"))
    dense = np.asarray(tfidf(c, build_vocabulary(c)).matrix.todense())
    assert np.allclose(
        dense[0], (0.9590558760577099, 0.28321692498715256), atol=1e-9, rtol=0
    )
    assert np.allclose(dense[1], (0.0, 1.0), atol=1e-9, rtol=0)

    rng = random.Random(2024)
    for _ in range(50):
        rc = random_labeled_corpus(rng)
        matrix = tfidf(rc, build_vocabulary(rc))
        squared = matrix.matrix.multiply(matrix.matrix).sum(axis=1)
        norms = np.sqrt(np.asarray(squared).ravel())
        empty = set(empty_rows(matrix.matrix))
        for i, norm in enumerate(norms):
            if i in empty:
                assert norm == 0.0
            else:
                assert abs(norm - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# preprocessing examples and pipeline idempotence


def test_preprocessing_examples_hold_and_pipeline_is_idempotent():
    config = default_config()

    # multi-word place names concatenate case-insensitively, whole words only
    assert apply_concat_map("en Santa Ana", config) == "en SantaAna"
    assert apply_concat_map("santa ana canta", config) == "SantaAna canta"
    assert apply_concat_map("Santa Anand", config) == "Santa Anand"

    # corpus-level lowering: a capitalized form is kept once it stops being
    # rare among all occurrences of the word (strictly-below threshold)
    lyrics = corpus(
        ("1", "Ay ay ay ay ay ay ay ay ay", "A"),
        ("2", "Mar Mar Mar Mar Mar", "A"),
        ("3", "Luna luna luna luna", "A"),
    )

    def lowered(gamma):
        return preprocess_with_decisions(
            lyrics, replace(config, gamma=gamma)
        )[1].lowered_words

    # "mar" is only ever capitalized; 1 "Luna" of 5 sits exactly at the bound
    assert lowered(config.gamma) == {"ay"}
    # 1 "Ay" of 9
    assert "ay" not in lowered(0.11) and "ay" in lowered(0.12)

    # accents and punctuation strip; the tilde on n survives
    assert filter_tokens("¡corazón!", config, frozenset()) == ["corazon"]
    assert filter_tokens("vergüenza", config, frozenset()) == ["verguenza"]
    assert filter_tokens("niña", config, frozenset()) == ["niña"]

    # whitespace tokenization and case-sensitive stop words
    assert filter_tokens("mar  Cadiz\tsol", config, frozenset()) == [
        "mar", "Cadiz", "sol"
    ]
    assert filter_tokens("que Que mar", config, frozenset()) == ["Que", "mar"]

    # the full pipeline on a three-song corpus
    out = preprocess_corpus(
        corpus(
            ("1", "¡Ay, que viva Cádiz!", "A"),
            ("2", "ay ay ay ay ay el mar", "A"),
            ("3", "el mar de Cádiz brilla", "B"),
        ),
        config,
    )
    assert [r.text for r in out.records] == [
        "viva Cadiz", "mar", "mar Cadiz brilla",
    ]

    # running the pipeline on its own output changes nothing
    rng = random.Random(99)
    for _ in range(1000):
        rc = random_spanish_corpus(rng)
        once = preprocess_corpus(rc, config)
        twice = preprocess_corpus(once, config)
        assert twice.records == once.records


# ---------------------------------------------------------------------------
# MST minimality against exhaustive tree enumeration


def test_mst_weight_is_exhaustively_minimal_on_eight_genres():
    start = time.perf_counter()
    trees = oracles.all_labeled_trees(8)
    assert len(trees) == 8**6 == 262144
    edge_array = np.array(trees)  # (262144, 7, 2) vertex indices
    u, v = edge_array[..., 0], edge_array[..., 1]
    labels = tuple(f"g{i}" for i in range(8))
    rng = np.random.default_rng(4242)
    for _ in range(100):
        upper = np.triu(rng.uniform(0.01, 1.0, size=(8, 8)), 1)
        values = upper + upper.T
        tree = minimum_spanning_tree(DistanceMatrix(labels, values))
        got = sum(w for _, _, w in tree.edges)
        best = values[u, v].sum(axis=1).min()
        assert abs(got - best) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"enumeration took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# cosine-distance properties


def test_cosine_distance_properties_on_randomized_vectors():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        dim = int(rng.integers(4, 12))
        vectors = {}
        for i in range(n):
            raw = rng.uniform(0.0, 1.0, size=dim) + 1e-6
            vectors[f"g{i}"] = raw / np.linalg.norm(raw)
        m = distance_matrix(vectors)
        assert np.array_equal(m.values, m.values.T)
        assert np.all(np.diag(m.values) == 0.0)
        assert m.values.min() >= 0.0 and m.values.max() <= 1.0

    for _ in range(20):
        dim = int(rng.integers(4, 10))
        raw = rng.uniform(0.1, 1.0, size=dim)
        shared = raw / np.linalg.norm(raw)
        # the self dot-product can round one ulp below 1
        identical = distance_matrix({"a": shared, "b": shared.copy()})
        assert 0.0 <= distance(identical, "a", "b") <= 1e-12

        split = int(rng.integers(1, dim))
        left, right = np.zeros(dim), np.zeros(dim)
        left[:split] = rng.uniform(0.1, 1.0, size=split)
        right[split:] = rng.uniform(0.1, 1.0, size=dim - split)
        m = distance_matrix(
            {
                "a": left / np.linalg.norm(left),
                "b": right / np.linalg.norm(right),
            }
        )
        assert distance(m, "a", "b") == 1.0


# ---------------------------------------------------------------------------
# power-law exponent recovery on synthetic corpora


def test_power_law_exponents_recovered_on_synthetic_corpora():
    scale = 11005  # times the 5000th harmonic number ~ 1e5 tokens
    words = []
    for rank in range(1, 5001):
        words.extend([f"w{rank:04d}"] * round(scale / rank))
    assert len(words) >= 100_000
    zipf_corpus = corpus(("z1", " ".join(words), "Z"))
    zfit = zipf_fit(ranked_frequencies(token_ids(zipf_corpus)))
    assert zfit.exponent == pytest.approx(-1.0, abs=0.05)

    distinct = corpus(("h1", " ".join(f"t{i:04d}" for i in range(5000)), "Z"))
    _, hfit = heaps_curve(token_ids(distinct), seed=7)
    assert hfit.exponent == pytest.approx(1.0, abs=0.02)


# ---------------------------------------------------------------------------
# sTTR protocol checks


def test_sttr_full_window_reproduces_ttr_and_mean_stays_within_extremes():
    rng = random.Random(14)
    for _ in range(25):
        tokens = [f"w{rng.randint(0, 12)}" for _ in range(rng.randint(5, 60))]
        prev = _previous_occurrences(token_ids(corpus(("t", " ".join(tokens)))).ids)
        full = _sttr_of(prev, len(tokens), 50, seed=1)
        assert full.mean == oracles.profile(tokens)[2]
        assert full.stderr == 0.0
        assert full.n_windows == 1

        w = rng.randint(1, len(tokens) - 1)
        sampled = _sttr_of(prev, w, 40, seed=2)
        window_ttrs = [
            len(set(tokens[s : s + w])) / w
            for s in range(len(tokens) - w + 1)
        ]
        assert min(window_ttrs) - 1e-12 <= sampled.mean
        assert sampled.mean <= max(window_ttrs) + 1e-12


# ---------------------------------------------------------------------------
# lexical passes against the whole-token-list and token-string constructions


def streaming_corpora():
    """Generated and random corpora, each with empty records and a
    one-record palo, every other one with a one-token palo too (whose
    document is then the sTTR window)."""
    rng = random.Random(41)
    corpora = [
        preprocess_with_decisions(generated_corpus(seed), default_config())[0]
        for seed in (1, 2)
    ]
    corpora += [
        random_labeled_corpus(rng, n_palos=3, pool_size=25, doc_len=(0, 20))
        for _ in range(15)
    ]
    extra = [record("pair-0", "", "pair"), record("pair-1", "w2 w3 w2", "pair")]
    return [
        Corpus(list(c.records) + extra + [record("solo-0", "w1", "solo")] * (i % 2))
        for i, c in enumerate(corpora)
    ]


def oracle_stats_rows(c, n_windows, seed):
    """profile.csv and sttr.csv rows from each palo's newline-joined texts
    and the corpus's token list, as token lists."""
    texts = {}
    for rec in c.records:
        texts.setdefault(rec.palo, []).append(rec.text)
    docs = {palo: "\n".join(t).split() for palo, t in texts.items()}
    window = min(map(len, docs.values()))
    labelled = [(palo, docs[palo]) for palo in sorted(docs)]
    labelled.append(("__corpus__", [t for palo in c.palos for t in docs[palo]]))
    profile_rows, sttr_rows = [], []
    for label, doc in labelled:
        profile_rows.append([label, *oracles.profile(doc)])
        mean, stderr = oracles.sttr(
            doc, window, n_windows, derive_seed(seed, "sttr", label)
        )
        n = 1 if window == len(doc) else n_windows
        sttr_rows.append([label, mean, stderr, window, n])
    return profile_rows, sttr_rows


def many_words_corpus():
    """90,000 tokens over 70,000 distinct words in three palos: more word
    ids than 16 bits hold."""
    rng = random.Random(43)
    words = [f"v{i}" for i in range(70_000)]
    tokens = words + rng.choices(words[:2_000], k=20_000)
    rng.shuffle(tokens)
    return Corpus(
        record(f"m{i}", " ".join(tokens[600 * i : 600 * (i + 1)]), f"palo{i % 3}")
        for i in range(150)
    )


def lexical_corpora():
    """The streaming corpora, raw accented corpora with empty records and a
    one-token song per palo, and the many-words corpus."""
    rng = random.Random(44)
    accented = [
        Corpus(
            list(random_spanish_corpus(rng, tokens_per_record=(0, 12)).records)
            + [record("uno-A", "ñu", "A"), record("uno-B", "¡Qué!", "B")]
        )
        for _ in range(10)
    ]
    return streaming_corpora() + accented + [many_words_corpus()]


def test_profile_and_sttr_rows_equal_the_token_list_oracle():
    *small, large = lexical_corpora()
    for c in small:
        for n_windows, seed in ((50, 0), (1, 3), (7, 11)):
            got = profile_and_sttr_rows(token_ids(c), n_windows, seed)
            assert got == oracle_stats_rows(c, n_windows, seed)
    assert profile_and_sttr_rows(token_ids(large), 7, 11) == oracle_stats_rows(
        large, 7, 11
    )


def test_ranked_frequencies_equal_the_string_oracle():
    for c in lexical_corpora():
        got = ranked_frequencies(token_ids(c))
        assert got == oracles.ranked_frequencies([r.text for r in c.records])
        assert all(type(count) is int for _, count in got)


def test_heaps_points_equal_the_token_list_oracle():
    for c in lexical_corpora():
        texts = [r.text for r in c.records]
        for seed, n_checkpoints in ((0, 200), (9, 2)):
            points, _ = heaps_curve(token_ids(c), seed, n_checkpoints)
            assert points == oracles.heaps_points(texts, seed, n_checkpoints)


def test_hapax_report_equals_the_string_oracle():
    for c in lexical_corpora():
        first_words = {}
        for r in c.records:
            first_words.setdefault(r.palo, []).extend(r.text.split()[:1])
        essential = {palo: words[:3] for palo, words in first_words.items()}
        essential["absent"] = ["w1"]
        got = hapax_report(token_ids(c), essential)
        per_song, unique, shared = oracles.hapax(
            [(r.id, r.palo, r.text) for r in c.records], essential
        )
        assert got.per_song == per_song
        assert got.per_palo_unique == unique
        assert list(got.per_palo_unique) == list(unique)
        assert got.shared_with_essential == shared


def test_genre_vectors_equal_the_joined_text_oracle():
    # preprocessed corpora carry their word ids, emptied records included
    carrying = [
        preprocess_with_decisions(generated_corpus(seed), default_config())[0]
        for seed in (1, 2)
    ]
    assert all(any(not r.text for r in c.records) for c in carrying)
    for c in streaming_corpora() + carrying:
        got = genre_vectors(c)
        expected = oracles.genre_vectors([(r.palo, r.text) for r in c.records])
        assert list(got) == list(expected)
        for palo, row in got.items():
            assert row.shape == (expected[palo].shape[1],)
            assert np.array_equal(np.flatnonzero(row), expected[palo].indices)
            assert np.array_equal(row[row != 0], expected[palo].data)


def encoding_with_round_tables(c):
    """The corpus's encoding with the tables the experiment rounds read."""
    e = encode(c)
    return e, e.indptr, e.column, e.tf, e.cell, e.df


def test_streamed_passes_hold_no_token_list():
    # about 200k tokens over 50 types: a token list alone would take
    # 1.6 MB of pointers, the token strings about 10 MB more. Each pass gets
    # a corpus of its own to tokenize, since a corpus keeps its ids
    rng = random.Random(42)
    words = [f"w{i}" for i in range(50)]
    records = [
        record(f"s{i}", " ".join(rng.choices(words, k=1000)), f"palo{i % 4}")
        for i in range(200)
    ]
    vocab = build_vocabulary(Corpus(records))
    passes = {
        "heaps_curve": lambda c: heaps_curve(token_ids(c), seed=1),
        "ranked_frequencies": lambda c: ranked_frequencies(token_ids(c)),
        "hapax_report": lambda c: hapax_report(token_ids(c)),
        "build_vocabulary": build_vocabulary,
        "tfidf": lambda c: tfidf(c, vocab),
        "genre vectors": genre_vectors,
        "encode": encode,
        "experiment encoding": encoding_with_round_tables,
    }
    for name, run in passes.items():
        c = Corpus(records)
        tracemalloc.start()
        try:
            run(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, (name, peak)


def test_genre_vectors_peak_at_the_peak_of_their_encoding():
    # about 195k (song, word) entries for 12k (palo, word) cells. The
    # encoding peaks at 7.5 MB here, and the genre vectors, which keep it
    # while one bincount reduces it, at 1.18 times that. Reducing the entries
    # with np.unique and its index arrays peaked at 1.82 times
    rng = random.Random(43)
    words = [f"w{i}" for i in range(3000)]
    records = [
        record(f"s{i}", " ".join(rng.choices(words, k=200)), f"palo{i % 4}")
        for i in range(1000)
    ]
    peaks = {}
    for name, run in (("encode", encode), ("genre vectors", genre_vectors)):
        c = Corpus(records)
        tracemalloc.start()
        try:
            run(c)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["genre vectors"] < 1.4 * peaks["encode"], peaks


def test_preprocessing_holds_at_most_two_id_arrays_beyond_its_output():
    # the corpus of test_streamed_passes_hold_no_token_list. Before
    # preprocessing numbered its tokens, it peaked at 873,464 bytes here,
    # about the output texts. The bound adds 8 bytes a token, what two
    # int32 arrays of the 200k raw ids hold: the ids the output corpus
    # carries and one more array
    rng = random.Random(42)
    words = [f"w{i}" for i in range(50)]
    c = Corpus(
        record(f"s{i}", " ".join(rng.choices(words, k=1000)), f"palo{i % 4}")
        for i in range(200)
    )
    config = default_config()
    preprocess_with_decisions(c, config)  # packaged resources loaded, caches filled
    tracemalloc.start()
    try:
        processed, _ = preprocess_with_decisions(c, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(token_ids(processed).ids) == 200_000
    assert peak < 873_464 + 8 * 200_000, peak


# ---------------------------------------------------------------------------
# byte-identical CLI outputs across executions and thread settings


def acceptance_cli_corpus(path, extra_shared=()):
    rng = random.Random(12)
    pools = {
        "sole": ["pena", "llorar", "noche", "sombra", "camino", "qué"],
        "alegria": ["mar", "sol", "arena", "Cádiz", "puerto", "brisa"],
        "tango": ["baile", "fiesta", "jaleo", "calle", "señora", "tambor"],
    }
    shared = ["agua", "luna", "viento", "corazón", "¡ay!", *extra_shared]
    with open(path, "w", encoding="utf-8") as fh:
        for palo, pool in pools.items():
            for i in range(6):
                words = [
                    rng.choice(pool + shared)
                    for _ in range(rng.randint(6, 10))
                ]
                fh.write(
                    json.dumps(
                        {
                            "id": f"{palo}-{i}",
                            "palo": palo,
                            "text": " ".join(words),
                        },
                        ensure_ascii=False,
                    )
                    + "\n"
                )
    return path


def run_every_command(corpus_path, out_dir, extra_args=()):
    base = [
        "--corpus", str(corpus_path), "--output-dir", str(out_dir),
        "--min-lyrics", "2", "--seed", "13", *extra_args,
    ]
    fit_opts = ["--runs", "2", "--train-fraction", "0.5"]
    assert cli.main(["stats", *base]) == 0
    assert cli.main(["train", *base, "--runs", "3",
                     "--train-fraction", "0.5"]) == 0
    assert cli.main(["sweep-alpha", *base, *fit_opts,
                     "--grid-step", "0.25"]) == 0
    assert cli.main(["essential", *base, *fit_opts]) == 0
    assert cli.main(["distances", *base]) == 0
    assert cli.main(["mst", *base]) == 0


def assert_byte_identical_runs(tmp_path, monkeypatch, corpus_path, extra_args=()):
    """Every command twice and once more with three threads; returns the
    first run's directory."""
    first, second, threaded = (
        tmp_path / "first", tmp_path / "second", tmp_path / "threaded"
    )
    run_every_command(corpus_path, first, extra_args)
    run_every_command(corpus_path, second, extra_args)
    with monkeypatch.context() as patch:
        patch.setenv(cli.THREADS_ENV_VAR, "3")
        run_every_command(corpus_path, threaded, extra_args)

    names = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert len(names) >= 15  # every command produced its reports
    for other in (second, threaded):
        assert sorted(
            p.relative_to(other) for p in other.rglob("*") if p.is_file()
        ) == names
        for rel in names:
            assert (other / rel).read_bytes() == (first / rel).read_bytes(), rel
    return first


def test_cli_outputs_byte_identical_across_executions_and_threads(
    tmp_path, monkeypatch, capsys
):
    corpus_path = acceptance_cli_corpus(tmp_path / "corpus.jsonl")
    assert_byte_identical_runs(tmp_path, monkeypatch, corpus_path)
    capsys.readouterr()


def test_cli_outputs_byte_identical_with_phrases_equal_but_for_case(
    tmp_path, monkeypatch, capsys
):
    corpus_path = acceptance_cli_corpus(
        tmp_path / "corpus.jsonl",
        ("Santa Ana", "santa ana", "SANTA ANA", "ſanta ana", "Puerto Real"),
    )
    concat_map = tmp_path / "concat.tsv"
    concat_map.write_text(
        "Santa Ana\tSantaUno\nsanta ana\tSantaDos\nPuerto Real\tPuertoReal\n",
        encoding="utf-8",
    )
    first = assert_byte_identical_runs(
        tmp_path, monkeypatch, corpus_path, ("--concat-map", str(concat_map))
    )
    capsys.readouterr()
    words = set(json.loads((first / "model.json").read_text("utf-8"))["vocab"]["words"])
    # phrases equal but for case share the replacement sorted last of them
    assert {"SantaDos", "PuertoReal"} <= words
    assert not {"SantaUno", "Santa", "santa", "ana"} & words


# ---------------------------------------------------------------------------
# reproduction checks on the full corpus (supplied via environment variable)


REFERENCE_ENV = "LEXPALO_REFERENCE_CORPUS"
REFERENCE_PATH = os.environ.get(REFERENCE_ENV)

needs_reference = pytest.mark.skipif(
    REFERENCE_PATH is None,
    reason=f"set {REFERENCE_ENV} to a labeled lyric corpus file to run "
    "the reproduction checks",
)

PALO_CODE_PREFIXES = {
    "A": ("alegr",),
    "B": ("buler",),
    "F": ("fandang",),
    "M": ("malague",),
    "Se": ("seguiri", "siguiri"),
    "So": ("sole",),
    "Ta": ("tang",),
    "Ti": ("tient",),
}


def _reference_threads():
    return max(1, int(os.environ.get(cli.THREADS_ENV_VAR, "1")))


@pytest.fixture(scope="module")
def reference_corpus():
    path = Path(REFERENCE_PATH)
    fmt = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    filtered = filter_top_palos(load_corpus(path, fmt), 100)
    processed = preprocess_corpus(filtered, default_config())
    return filtered, processed


@pytest.fixture(scope="module")
def palo_of(reference_corpus):
    """Map short genre codes onto the corpus's own palo spellings."""
    filtered, _ = reference_corpus
    punctuation = default_config().punctuation
    resolved = {}
    for code, prefixes in PALO_CODE_PREFIXES.items():
        matches = [
            name
            for name in filtered.palos
            if oracles._strip_token(name, punctuation).lower().startswith(prefixes)
        ]
        assert len(matches) == 1, f"cannot resolve {code!r} in {filtered.palos}"
        resolved[code] = matches[0]
    return resolved


@pytest.fixture(scope="module")
def reference_training_report(reference_corpus):
    _, processed = reference_corpus
    runs = experiments.run_trainings(
        processed,
        0.11,
        100,
        SplitSpec(train_fraction=0.85, seed=0),
        threads=_reference_threads(),
    )
    return experiments.aggregate(runs)


@needs_reference
def test_reference_corpus_reduction_counts(reference_corpus):
    filtered, processed = reference_corpus
    assert len(filtered) == 2216
    assert len(filtered.palos) == 8
    tokens = sum(len(r.text.split()) for r in processed.records)
    types = len({t for r in processed.records for t in r.text.split()})
    assert abs(tokens - 186798) <= 0.02 * 186798, tokens
    assert abs(types - 10204) <= 0.02 * 10204, types


@needs_reference
def test_reference_alpha_sweep_peaks_in_expected_band(reference_corpus):
    _, processed = reference_corpus
    result = experiments.alpha_sweep(
        processed,
        0.005,
        200,
        SplitSpec(train_fraction=0.85, seed=0),
        threads=_reference_threads(),
    )
    assert 0.08 <= result.best_alpha <= 0.15, result.best_alpha
    assert max(result.mean_accuracy) >= 0.74


@needs_reference
def test_reference_per_palo_accuracies_in_expected_bands(
    reference_training_report, palo_of
):
    bands = {
        "Se": (0.91, 0.05),
        "A": (0.88, 0.05),
        "So": (0.85, 0.05),
        "Ta": (0.50, 0.08),
        "Ti": (0.61, 0.08),
    }
    for code, (center, tolerance) in bands.items():
        got = reference_training_report.mean_accuracy[palo_of[code]]
        assert abs(got - center) <= tolerance, f"{code}: {got}"


@needs_reference
def test_reference_modal_confusions_match_expected_pairs(
    reference_training_report, palo_of
):
    report = reference_training_report
    position = {c: k for k, c in enumerate(report.classes)}
    for source, target, center in (
        ("B", "So", 0.39), ("Ti", "Ta", 0.40), ("M", "F", 0.53),
    ):
        row = report.confusion_only[position[palo_of[source]]]
        target_pos = position[palo_of[target]]
        assert int(np.argmax(row)) == target_pos, (source, target)
        assert abs(row[target_pos] - center) <= 0.10, (source, row[target_pos])


@needs_reference
def test_reference_genre_distances_clusters_and_mst_structure(
    reference_corpus, palo_of
):
    _, processed = reference_corpus
    aggregates = oracles.concat_by_palo(processed)
    agg = Corpus(aggregates[p] for p in sorted(aggregates))
    matrix = tfidf(agg, build_vocabulary(agg))
    vectors = {rec.palo: matrix.matrix[i] for i, rec in enumerate(agg.records)}
    m = distance_matrix(vectors)

    assert abs(distance(m, palo_of["Ti"], palo_of["Ta"]) - 0.26) <= 0.04
    assert abs(distance(m, palo_of["B"], palo_of["So"]) - 0.28) <= 0.04
    assert abs(float(m.values.max()) - 0.70) <= 0.05

    dendro = hierarchical_cluster(m)
    first_two = set()
    for a, b, _, _ in dendro.merges[:2]:
        assert a < len(m.labels) and b < len(m.labels)  # leaf-leaf merges
        first_two.add(frozenset((m.labels[a], m.labels[b])))
    assert first_two == {
        frozenset((palo_of["Ta"], palo_of["Ti"])),
        frozenset((palo_of["B"], palo_of["So"])),
    }

    tree = minimum_spanning_tree(m)
    degree = sum(1 for a, b, _ in tree.edges if palo_of["B"] in (a, b))
    assert degree >= 3


@needs_reference
def test_reference_essential_word_counts_and_top_words(
    reference_corpus, palo_of
):
    _, processed = reference_corpus
    report = experiments.essential_words(
        processed, 0.11, 500, SplitSpec(train_fraction=0.85, seed=0)
    )
    expected = {
        "A": 72, "B": 98, "F": 94, "M": 15,
        "Se": 173, "So": 186, "Ta": 60, "Ti": 54,
    }
    for code, center in expected.items():
        got = report.counts[palo_of[code]]
        assert abs(got - center) <= 0.2 * center, f"{code}: {got}"

    top_five = {w.lower() for w in report.per_palo[palo_of["A"]][:5]}
    landmarks = {"cadiz", "llevar", "conmigo", "murallareal", "dira"}
    assert len(top_five & landmarks) >= 3, top_five
