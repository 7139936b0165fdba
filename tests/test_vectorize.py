"""Vocabulary construction and the row-normalized TF-IDF matrix."""

import math
import random
from dataclasses import replace
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lexpalo import mnb, vectorize
from lexpalo.corpus_io import Corpus
from lexpalo.errors import VocabularyMismatchError
from lexpalo.preprocess import default_config, preprocess_corpus
from lexpalo.vectorize import (
    Vocabulary, build_vocabulary, genre_vectors, tfidf, tfidf_row,
)

import oracles
from helpers import (
    corpus_from_texts, empty_rows, generated_corpus, random_labeled_corpus, record,
)


def vocab_of(*texts):
    return build_vocabulary(corpus_from_texts(texts))


def dense(row):
    """A :func:`tfidf_row` as a dense vector of its width."""
    out = np.zeros(row.width)
    out[row.columns] = row.values
    return out


# ---------------------------------------------------------------------------
# vocabulary


def test_vocabulary_counts_document_frequencies():
    vocab = vocab_of("a b", "b c")
    assert vocab.words == ("a", "b", "c")
    assert vocab.df == (1, 2, 1)
    assert vocab.n_docs == 2
    assert vocab.index == {"a": 0, "b": 1, "c": 2}


def test_vocabulary_df_counts_documents_not_tokens():
    vocab = vocab_of("a a a b")
    assert vocab.df == (1, 1)


def test_vocabulary_single_doc_has_df_one_everywhere():
    vocab = vocab_of("mar arena sal mar")
    assert all(df == 1 for df in vocab.df)


def test_vocabulary_is_sorted():
    vocab = vocab_of("zeta alfa mar", "beta mar")
    assert list(vocab.words) == sorted(vocab.words)


# ---------------------------------------------------------------------------
# the hand-verified weighting example


def test_tfidf_two_doc_hand_example():
    c = corpus_from_texts(["a a b", "b"])
    result = tfidf(c, build_vocabulary(c))
    row1 = result.matrix[0].toarray().ravel()
    row2 = result.matrix[1].toarray().ravel()
    # doc1 raw weights: a = (2/3)(1 + ln 2), b = (1/3)(1 + ln 1); then L2.
    assert abs(row1[0] - 0.9590558760577099) < 1e-12
    assert abs(row1[1] - 0.28321692498715256) < 1e-12
    assert np.allclose(row2, [0.0, 1.0], atol=1e-15)


def test_tfidf_word_in_every_doc_gets_idf_factor_one():
    c = corpus_from_texts(["a b", "a c"])
    vocab = build_vocabulary(c)
    row = dense(tfidf_row(["a"], vocab))
    # single-word doc: raw weight (1/1)*(1 + ln(2/2)) = 1, normalized to 1
    assert row[vocab.index["a"]] == 1.0


def test_tfidf_single_in_vocab_word_gives_unit_basis_vector():
    c = corpus_from_texts(["a b c", "b c d"])
    vocab = build_vocabulary(c)
    row = dense(tfidf_row(["d", "d", "d"], vocab))
    expected = np.zeros(len(vocab.words))
    expected[vocab.index["d"]] = 1.0
    assert np.array_equal(row, expected)


# ---------------------------------------------------------------------------
# row semantics


def test_tfidf_rows_align_with_corpus_order_and_ids():
    c = corpus_from_texts(["a b", "c", "a c"])
    vocab = build_vocabulary(c)
    result = tfidf(c, vocab)
    assert tuple(rec.id for rec in c.records) == ("d0", "d1", "d2")
    assert result.matrix.shape == (3, 3)
    for rec, row in zip(c.records, result.matrix):
        assert np.array_equal(row.toarray().ravel(), dense(tfidf_row(rec.text.split(), vocab)))


def test_tfidf_empty_and_all_oov_docs_yield_flagged_zero_rows():
    train = corpus_from_texts(["a b", "b c"])
    vocab = build_vocabulary(train)
    docs = corpus_from_texts(["a", "", "zzz yyy"], prefix="v")
    result = tfidf(docs, vocab)
    assert [docs.records[i].id for i in empty_rows(result.matrix)] == ["v1", "v2"]
    assert result.matrix[1].nnz == 0
    assert result.matrix[2].nnz == 0
    assert result.matrix[0].nnz == 1


def test_tfidf_oov_tokens_change_nothing_after_normalization():
    train = corpus_from_texts(["a b", "b c", "a c"])
    vocab = build_vocabulary(train)
    clean = dense(tfidf_row(["a", "b"], vocab))
    noisy = dense(tfidf_row(["a", "b", "zzz", "qqq"], vocab))
    assert np.allclose(clean, noisy, atol=1e-15)


def test_tfidf_requires_a_vocabulary():
    docs = corpus_from_texts(["a"])
    empty = Vocabulary(words=(), df=(), n_docs=1)
    with pytest.raises(VocabularyMismatchError):
        tfidf(docs, empty)
    with pytest.raises(VocabularyMismatchError):
        tfidf_row(["a"], empty)
    with pytest.raises(VocabularyMismatchError):
        tfidf_row([], empty)


def test_tfidf_more_occurrences_shift_weight_toward_the_word():
    train = corpus_from_texts(["a b", "a a b"])
    vocab = build_vocabulary(train)
    once = dense(tfidf_row(["a", "b"], vocab))
    twice = dense(tfidf_row(["a", "a", "b"], vocab))
    ia, ib = vocab.index["a"], vocab.index["b"]
    assert twice[ia] / twice[ib] > once[ia] / once[ib]


def test_tfidf_permuting_docs_permutes_rows():
    texts = ["a b c", "c d", "a d d", "b"]
    c = corpus_from_texts(texts)
    vocab = build_vocabulary(c)
    base = tfidf(c, vocab).matrix.toarray()
    perm = [2, 0, 3, 1]
    shuffled = corpus_from_texts([texts[i] for i in perm])
    permuted = tfidf(shuffled, vocab).matrix.toarray()
    assert np.array_equal(permuted, base[perm])


def test_tfidf_rows_have_unit_norm_on_random_corpora():
    rng = random.Random(99)
    for _ in range(25):
        c = random_labeled_corpus(rng, n_palos=2)
        vocab = build_vocabulary(c)
        matrix = tfidf(c, vocab).matrix
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
        assert np.all(np.abs(norms - 1.0) <= 1e-9)
        assert matrix.min() >= 0.0


# ---------------------------------------------------------------------------
# brute-force equivalence on an exhaustive small family


def small_doc_family():
    """Every multiset of up to 3 tokens over a 4-type alphabet."""
    docs = [()]
    for length in (1, 2, 3):
        docs.extend(combinations_with_replacement("abcd", length))
    return [list(d) for d in docs]


def test_tfidf_matches_bruteforce_on_all_small_corpora():
    docs = small_doc_family()
    checked = 0
    for pair in combinations_with_replacement(range(len(docs)), 2):
        token_lists = [docs[i] for i in pair]
        if not any(token_lists):
            continue  # no vocabulary at all
        c = corpus_from_texts([" ".join(t) for t in token_lists])
        vocab = build_vocabulary(c)
        got = tfidf(c, vocab).matrix.toarray()
        expected, words, _ = oracles.tfidf_rows(token_lists)
        assert list(vocab.words) == words
        assert np.allclose(got, np.array(expected), atol=1e-12, rtol=0.0)
        checked += 1
    assert checked > 500


def test_tfidf_row_against_fixed_vocab_matches_bruteforce():
    rng = random.Random(4)
    pool = list("abcdef")
    for _ in range(50):
        train_tokens = [
            [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(2, 5))
        ]
        c = corpus_from_texts([" ".join(t) for t in train_tokens])
        vocab = build_vocabulary(c)
        _, words, df = oracles.tfidf_rows(train_tokens)
        probe = [rng.choice(pool + ["zzz"]) for _ in range(rng.randint(0, 6))]
        got = dense(tfidf_row(probe, vocab))
        expected = oracles.tfidf_row(probe, words, df, len(train_tokens))
        assert np.allclose(got, expected, atol=1e-12, rtol=0.0)
        norm = math.sqrt(float(got @ got))
        assert norm == 0.0 or abs(norm - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# the corpus encoding


@pytest.mark.parametrize("block", [1, 2, 7, vectorize._BLOCK_TOKENS])
def test_encoding_counts_each_record_in_blocks_of_any_size(monkeypatch, block):
    # blocks of 1 and 2 tokens end inside runs of empty records and put every
    # longer record in a block of its own
    monkeypatch.setattr(vectorize, "_BLOCK_TOKENS", block)
    rng = random.Random(block)
    corpora = [
        random_labeled_corpus(rng, n_palos=3, pool_size=12, doc_len=(0, 9))
        for _ in range(10)
    ]
    corpora.append(preprocess_corpus(generated_corpus(1), default_config()))
    for c in corpora:
        e = vectorize.encode(c)
        token_lists = [r.text.split() for r in c.records]
        assert e.words == tuple(sorted({t for tokens in token_lists for t in tokens}))
        assert e.lengths.tolist() == list(map(len, token_lists))
        expected = [(doc, e.words.index(word), tokens.count(word))
                    for doc, tokens in enumerate(token_lists)
                    for word in sorted(set(tokens))]
        assert list(zip(e.doc.tolist(), e.word.tolist(), e.count.tolist())) == expected


def test_encoding_tables_equal_their_direct_recomputation():
    # every fourth record emptied, and others drawn empty, so palos hold no
    # tokens in some of their records; the last corpus has a palo without any
    rng = random.Random(17)
    corpora = [
        Corpus(replace(r, text="") if i % 4 == 0 else r for i, r in enumerate(c.records))
        for c in (random_labeled_corpus(rng, n_palos=3, pool_size=12, doc_len=(0, 9))
                  for _ in range(10))
    ]
    corpora.append(Corpus([
        record("a", "", "P"), record("b", "x y x", "Q"), record("c", "", "Q"),
        record("d", "y", "P"), record("e", "", "R"), record("f", "z y", "Q"),
    ]))
    assert all(any(not r.text for r in c.records) for c in corpora)
    for c in corpora:
        e = vectorize.encode(c)
        assert e.corpus is c
        token_lists = [r.text.split() for r in c.records]
        classes = sorted({r.palo for r in c.records})
        pairs = [(doc, e.words.index(word)) for doc, tokens in enumerate(token_lists)
                 for word in sorted(set(tokens))]
        indptr = [0]
        for tokens in token_lists:
            indptr.append(indptr[-1] + len(set(tokens)))
        assert e.indptr.tolist() == indptr
        assert e.column.dtype == np.intp
        assert e.column.tolist() == [word for _, word in pairs]
        assert e.tf.tolist() == [
            token_lists[doc].count(e.words[word]) / len(token_lists[doc])
            for doc, word in pairs
        ]
        assert e.cell.tolist() == [
            classes.index(c.records[doc].palo) * len(e.words) + word for doc, word in pairs
        ]
        assert e.df.tolist() == [
            sum(word in tokens for tokens in token_lists) for word in e.words
        ]
        for table in (e.indptr, e.column, e.tf, e.cell, e.df):
            assert not table.flags.writeable


# ---------------------------------------------------------------------------
# bit-identity with the one-row-at-a-time construction


def assert_same_csr(got, expected):
    assert got.shape == expected.shape
    assert got.data.dtype == expected.data.dtype
    assert got.indices.dtype == expected.indices.dtype
    assert got.indptr.dtype == expected.indptr.dtype
    assert np.array_equal(got.data, expected.data)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.indptr, expected.indptr)
    assert got.has_sorted_indices == expected.has_sorted_indices


def assert_row_equals_csr(got, expected):
    """A ``tfidf_row`` holds a 1 x |V| CSR row's columns and values, bit
    for bit, its columns ascending."""
    assert expected.shape == (1, got.width)
    assert got.values.dtype == expected.data.dtype
    assert got.columns.tolist() == expected.indices.tolist()
    assert got.values.tobytes() == expected.data.tobytes()
    assert np.all(np.diff(got.columns) > 0)


@pytest.mark.parametrize(
    "train, docs",
    [
        (["a b c", "c d"], ["a a a b", "c d c d c", "b a b a"]),  # repeats
        (["a b", "b c"], ["zzz", "zzz yyy zzz", "a"]),  # only out-of-vocabulary
        (["a b", "b c"], ["", "a b", ""]),  # empty documents
        (["mar", "mar mar"], ["mar", "mar sal", "sal", ""]),  # one-word vocabulary
        (["c b a", "d a"], ["d c b a d", "a d c b"]),  # columns out of order
    ],
)
def test_tfidf_equals_per_document_reference(train, docs):
    vocab = vocab_of(*train)
    token_lists = [d.split() for d in docs]
    expected, empty = oracles.tfidf_per_document(token_lists, vocab)
    result = tfidf(corpus_from_texts(docs, prefix="v"), vocab)
    assert_same_csr(result.matrix, expected)
    assert result.matrix.shape[0] == len(docs)
    assert empty_rows(result.matrix) == tuple(empty)
    for i, tokens in enumerate(token_lists):
        row, _ = oracles.tfidf_per_document([tokens], vocab)
        assert_row_equals_csr(tfidf_row(tokens, vocab), row)


def test_tfidf_equals_per_document_reference_on_random_corpora():
    rng = random.Random(17)
    for _ in range(25):
        c = random_labeled_corpus(rng, n_palos=3, pool_size=40, doc_len=(0, 30))
        vocab = build_vocabulary(c)
        expected, empty = oracles.tfidf_per_document(
            [r.text.split() for r in c.records], vocab
        )
        result = tfidf(c, vocab)
        assert_same_csr(result.matrix, expected)
        assert empty_rows(result.matrix) == tuple(empty)


@pytest.mark.parametrize("seed", [1, 2])
def test_tfidf_equals_per_document_reference_on_carried_ids(seed):
    # a preprocessed corpus carries its word ids, and this one holds records
    # that preprocessing emptied
    processed = preprocess_corpus(generated_corpus(seed), default_config())
    assert any(not r.text for r in processed.records)
    token_lists = [r.text.split() for r in processed.records]
    vocab = build_vocabulary(processed)
    words, df = oracles.vocabulary(token_lists)
    assert vocab.words == tuple(words) and vocab.df == tuple(df[w] for w in words)
    assert vocab.n_docs == len(token_lists)
    # half the corpus gives another corpus's vocabulary, so the other texts
    # hold words outside it, which still count in their row's length
    other = build_vocabulary(Corpus(processed.records[::2]))
    assert any(w not in other.index for tokens in token_lists for w in tokens)
    for v in (vocab, other):
        expected, empty = oracles.tfidf_per_document(token_lists, v)
        result = tfidf(processed, v)
        assert_same_csr(result.matrix, expected)
        assert empty_rows(result.matrix) == tuple(empty)


@pytest.mark.parametrize("seed", [1, 2])
def test_tfidf_row_equals_its_row_of_tfidf(seed):
    processed = preprocess_corpus(generated_corpus(seed), default_config())
    records = processed.records
    # half the corpus trains, so other texts hold out-of-vocabulary words
    vocab = build_vocabulary(Corpus(records[::2]))
    docs = Corpus([*records, record("empty", ""), record("oov", "zzz yyy zzz")])
    matrix = tfidf(docs, vocab).matrix
    assert matrix.has_sorted_indices
    for i, rec in enumerate(docs.records):
        assert_row_equals_csr(tfidf_row(rec.text.split(), vocab), matrix[i])
    assert matrix[len(records)].nnz == matrix[len(records) + 1].nnz == 0


def test_idf_is_computed_once_per_vocabulary():
    vocab = vocab_of("a b", "b c", "b")
    expected = 1.0 + np.log(vocab.n_docs / np.asarray(vocab.df, dtype=float))
    assert np.array_equal(vocab.idf, expected)
    assert vocab.idf is vocab.idf
    with pytest.raises(ValueError):
        vocab.idf[0] = 0.0


@pytest.mark.parametrize("path", ["tfidf_row", "tfidf", "genre_vectors"])
@pytest.mark.parametrize("n_values", [9_999, 10_000, 10_001, 25_000])
def test_rows_beyond_ten_thousand_values_are_normalised_without_blas(n_values, path):
    # OpenBLAS threads the dot product of np.linalg.norm beyond 10,000 values,
    # and its kernels add in their own order: every row, short or long, adds
    # its squares one at a time in column order
    rng = random.Random(n_values)
    words = [f"w{i}" for i in range(n_values)]
    train = [" ".join(rng.sample(words, n_values // 2)) for _ in range(3)]
    tokens = [w for w in words for _ in range(rng.randint(1, 4))]
    rng.shuffle(tokens)
    if path == "genre_vectors":
        # palo X's songs split the tokens, so its cells sum over both
        cut = len(tokens) // 3
        texts = [" ".join(tokens[:cut]), train[0], " ".join(tokens[cut:])]
        c = Corpus(
            record(f"s{i}", text, palo) for i, (text, palo) in enumerate(zip(texts, "XYX"))
        )
        row = genre_vectors(c)["X"]
        assert_genre_rows_equal_the_csr_rows(c)
        vocab = vocab_of(" ".join(tokens), train[0])  # the palos as documents
        assert row.shape == (len(vocab.words),)
        columns, values = np.flatnonzero(row), row[np.flatnonzero(row)]
    else:
        docs = corpus_from_texts(train + [" ".join(words)])
        vocab = build_vocabulary(docs)
        if path == "tfidf":
            row = tfidf(corpus_from_texts(train[:1] + [" ".join(tokens)]), vocab).matrix[1]
            columns, values = row.indices, row.data
        else:
            row = tfidf_row(tokens, vocab)
            expected = oracles.csr_tfidf_row(tokens, vocab)
            assert_row_equals_csr(row, expected)
            model = mnb.fit(tfidf(docs, vocab), ["A", "B", "A", "B"], 0.11)
            scores = mnb.score(model, row).scores
            assert np.array([scores["A"], scores["B"]]).tobytes() == \
                oracles.csr_score(model, expected).tobytes()
            columns, values, _ = row

    counts = {}
    for tok in tokens:
        counts[tok] = counts.get(tok, 0) + 1
    cols = np.array([vocab.index[w] for w in counts])
    vals = np.array([n / len(tokens) for n in counts.values()]) * vocab.idf[cols]
    order = np.argsort(cols)
    cols, vals = cols[order], vals[order]
    # accumulate adds in order, where np.sum and a dot product do not
    vals /= np.sqrt(np.add.accumulate(vals * vals)[-1])
    assert np.array_equal(columns, cols)
    assert np.array_equal(values, vals)


# ---------------------------------------------------------------------------
# the norm does not see the order of a text's tokens


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_permuting_the_tokens_of_each_text_changes_no_bit(data):
    # every row adds its squares in column order, whatever order its words
    # come in; long-tailed word draws give rows of many values
    pool = [f"w{i}" for i in range(80)]
    words = st.integers(0, 79).map(lambda i: pool[int(i * i / 80)])
    texts = data.draw(st.lists(st.lists(words, max_size=60), min_size=2, max_size=8))
    palos = data.draw(st.lists(st.sampled_from("AB"), min_size=len(texts),
                               max_size=len(texts)))
    assume(any(texts))
    permuted = [data.draw(st.permutations(tokens)) for tokens in texts]
    corpora = [Corpus(record(f"s{i}", " ".join(tokens), palo)
                      for i, (tokens, palo) in enumerate(zip(token_lists, palos)))
               for token_lists in (texts, permuted)]
    vocab = build_vocabulary(corpora[0])
    assert build_vocabulary(corpora[1]) == vocab
    matrices = [tfidf(c, vocab).matrix for c in corpora]
    assert_same_csr(matrices[1], matrices[0])
    for tokens, shuffled in zip(texts, permuted):
        row, other = tfidf_row(tokens, vocab), tfidf_row(list(shuffled), vocab)
        assert other.columns.tolist() == row.columns.tolist()
        assert other.values.tobytes() == row.values.tobytes()
    if all(any(t for t, p in zip(texts, palos) if p == palo) for palo in set(palos)):
        vectors = [genre_vectors(c) for c in corpora]
        assert list(vectors[1]) == list(vectors[0])
        for palo, row in vectors[0].items():
            assert vectors[1][palo].tobytes() == row.tobytes()


# ---------------------------------------------------------------------------
# bit-identity with the CSR constructions of one text's row and the genre rows


def test_tfidf_row_equals_the_csr_row():
    rng = random.Random(23)
    processed = preprocess_corpus(generated_corpus(3), default_config())
    vocab = build_vocabulary(Corpus(processed.records[::2]))
    probes = [r.text.split() for r in processed.records]
    probes += [[], ["zzz"], [vocab.words[0]], [vocab.words[-1]] * 3, ["zzz", vocab.words[1]]]
    probes += [rng.choices(vocab.words + ("zzz",), k=rng.randint(1, 60)) for _ in range(200)]
    assert any(not t for t in probes)
    for tokens in probes:
        expected = oracles.csr_tfidf_row(tokens, vocab)
        row = tfidf_row(tokens, vocab)
        assert_row_equals_csr(row, expected)
        assert np.array_equal(dense(row), expected.toarray().ravel())
    # one-entry rows are unit basis vectors
    for word in vocab.words[:20]:
        assert tfidf_row([word, "zzz"], vocab).values.tolist() == [1.0]


def assert_genre_rows_equal_the_csr_rows(c):
    got = genre_vectors(c)
    expected = oracles.csr_genre_vectors(c)
    assert list(got) == list(expected)
    for palo, row in got.items():
        assert row.dtype == np.float64
        assert row.shape == (expected[palo].shape[1],)
        assert row.tobytes() == expected[palo].toarray().ravel().tobytes()
        assert np.flatnonzero(row).tolist() == expected[palo].indices.tolist()


def test_genre_vectors_equal_the_csr_rows():
    rng = random.Random(29)
    corpora = [preprocess_corpus(generated_corpus(seed), default_config()) for seed in (1, 2)]
    corpora += [random_labeled_corpus(rng, n_palos=4, pool_size=30, doc_len=(0, 25))
                for _ in range(20)]
    # a palo of one one-word song, beside empty songs
    corpora.append(Corpus([record("a", "w1", "A"), record("b", "", "B"),
                           record("c", "w2 w1 w2", "B"), record("d", "", "A")]))
    for c in corpora:
        assert_genre_rows_equal_the_csr_rows(c)
    assert genre_vectors(corpora[-1])["A"].tolist() == [1.0, 0.0]
