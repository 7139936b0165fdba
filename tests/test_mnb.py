"""Multinomial naive Bayes: fitting, scoring, persistence."""

import dataclasses
import json
import math
import random

import numpy as np
import pytest

from lexpalo import Corpus, mnb
from lexpalo.errors import (
    AlphaNonPositiveError,
    CorpusIoError,
    LabelMismatchError,
    ModelFormatError,
    VocabularyMismatchError,
)
from lexpalo.preprocess import (
    FrozenPipeline, PreprocessConfig, default_config, preprocess_corpus,
)
from lexpalo.vectorize import TfIdfRow, Vocabulary, build_vocabulary, tfidf, tfidf_row

import oracles
from helpers import (
    corpus_from_texts, generated_corpus, labeled_corpus, random_labeled_corpus,
)


def fitted(texts_by_palo, alpha=0.5):
    c = labeled_corpus(texts_by_palo)
    vocab = build_vocabulary(c)
    matrix = tfidf(c, vocab)
    labels = [r.palo for r in c.records]
    return mnb.fit(matrix, labels, alpha), matrix, labels


# ---------------------------------------------------------------------------
# fitting


def test_fit_priors_are_class_frequencies():
    model, _, _ = fitted({"X": ["a b", "a c"], "Y": ["d", "d e"]})
    assert model.priors == {"X": 0.5, "Y": 0.5}
    model2, _, _ = fitted({"X": ["a", "b", "c"], "Y": ["d"]})
    assert model2.priors == {"X": 0.75, "Y": 0.25}


def test_fit_classes_are_sorted():
    model, _, _ = fitted({"zeta": ["a"], "alfa": ["b"], "mar": ["c"]})
    assert model.classes == ("alfa", "mar", "zeta")


def test_fit_zero_mass_word_gets_smoothing_floor():
    alpha = 0.25
    model, matrix, _ = fitted({"X": ["a a"], "Y": ["b b"]}, alpha=alpha)
    vocab = matrix.vocab
    k_x = model.classes.index("X")
    # class X never uses "b": its probability is alpha / sum(alpha + mass)
    mass_a = float(matrix.matrix[0].toarray().ravel()[vocab.index["a"]])
    expected_floor = alpha / (alpha * 2 + mass_a)
    got = math.exp(model.word_logprob[k_x, vocab.index["b"]])
    assert abs(got - expected_floor) < 1e-15
    assert got > 0.0


def test_fit_class_distributions_sum_to_one():
    model, _, _ = fitted(
        {"X": ["a b c", "a a"], "Y": ["c d", "d d e"], "Z": ["e"]}
    )
    sums = np.exp(model.word_logprob).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-6)


def test_fit_rejects_nonpositive_alpha():
    c = corpus_from_texts(["a", "b"])
    matrix = tfidf(c, build_vocabulary(c))
    for alpha in (0.0, -0.5, math.nan, math.inf, -math.inf, 1e308):
        with pytest.raises(AlphaNonPositiveError, match="finite and > 0"):
            mnb.fit(matrix, ["X", "Y"], alpha)
    # 1e308 fails above only because alpha * |V| = 2e308 overflows
    mnb.check_alpha(1e308, 1)


def test_fit_rejects_misaligned_labels():
    c = corpus_from_texts(["a", "b"])
    matrix = tfidf(c, build_vocabulary(c))
    with pytest.raises(LabelMismatchError):
        mnb.fit(matrix, ["X"], 0.5)


def test_fit_scaling_matrix_and_alpha_together_is_invariant():
    c = labeled_corpus({"X": ["a b", "a"], "Y": ["b c", "c"]})
    vocab = build_vocabulary(c)
    matrix = tfidf(c, vocab)
    labels = [r.palo for r in c.records]
    factor = 3.7
    scaled = dataclasses.replace(matrix, matrix=matrix.matrix * factor)
    base = mnb.fit(matrix, labels, 0.11)
    same = mnb.fit(scaled, labels, 0.11 * factor)
    assert np.allclose(base.word_logprob, same.word_logprob, atol=1e-12, rtol=0.0)
    assert base.priors == same.priors


def fit_corpora():
    """The corpora of the per-class fit test: preprocessed generated corpora
    with their emptied records, the same without them, one whose palo Z has
    a single document, and random corpora with empty documents."""
    processed = [
        preprocess_corpus(generated_corpus(seed), default_config()) for seed in (1, 2)
    ]
    yield from processed
    yield from (Corpus(r for r in c.records if r.text.split()) for c in processed)
    yield labeled_corpus({"X": ["a b", "b c a", "c"], "Y": ["d a", "d"], "Z": ["b d"]})
    rng = random.Random(41)
    for _ in range(5):
        yield random_labeled_corpus(rng, n_palos=4, pool_size=60, doc_len=(0, 40))


def test_fit_equals_the_per_class_row_sums():
    corpora = list(fit_corpora())
    assert any(any(not r.text for r in c.records) for c in corpora)
    assert any(min(map(len, c.palo_index.values())) == 1 for c in corpora)
    for c in corpora:
        labels = [r.palo for r in c.records]
        matrix = tfidf(c, build_vocabulary(c))
        for alpha in (0.11, 1.0):
            model = mnb.fit(matrix, labels, alpha)
            classes, priors, word_logprob = oracles.mnb_fit_by_class_rows(
                matrix.matrix, labels, alpha
            )
            assert model.classes == classes
            assert list(model.priors.items()) == list(priors.items())
            assert model.word_logprob.dtype == word_logprob.dtype
            assert np.array_equal(model.word_logprob, word_logprob)


# ---------------------------------------------------------------------------
# scoring


def test_score_empty_vector_falls_back_to_priors():
    model, matrix, _ = fitted({"X": ["a", "b"], "Y": ["c"]})
    width = len(matrix.vocab.words)
    result = mnb.score(model, TfIdfRow(np.array([], int), np.array([]), width))
    assert result == mnb.score(model, tfidf_row(["zzz"], matrix.vocab))
    for cls in model.classes:
        assert result.scores[cls] == math.log(model.priors[cls])
    assert result.predicted == "X"  # the max-prior class


def test_score_tie_goes_to_first_sorted_class():
    model, matrix, _ = fitted({"X": ["a b"], "Y": ["a b"]})
    row = tfidf_row(["a", "b"], matrix.vocab)
    result = mnb.score(model, row)
    assert abs(result.scores["X"] - result.scores["Y"]) < 1e-15
    assert result.predicted == "X"


def test_score_hand_model_difference_is_log_odds():
    vocab = Vocabulary(words=("u", "w"), df=(1, 1), n_docs=2)
    model = mnb.MnbModel(
        classes=("c1", "c2"),
        priors={"c1": 0.5, "c2": 0.5},
        word_logprob=np.log(np.array([[0.3, 0.7], [0.7, 0.3]])),
        alpha=0.1,
        vocab=vocab,
    )
    result = mnb.score(model, TfIdfRow(np.array([1]), np.array([1.0]), 2))
    assert result.predicted == "c1"
    diff = result.scores["c1"] - result.scores["c2"]
    assert abs(diff - math.log(0.7 / 0.3)) < 1e-12


def test_score_rejects_wrong_width_vector():
    model, _, _ = fitted({"X": ["a b"], "Y": ["c"]})
    with pytest.raises(VocabularyMismatchError):
        mnb.score(model, TfIdfRow(np.array([0]), np.array([1.0]), 1))


def test_predicted_is_argmax_of_reported_scores():
    rng = random.Random(8)
    model, matrix, _ = fitted(
        {"X": ["a b", "b"], "Y": ["c d", "d"], "Z": ["e a"]}
    )
    for _ in range(20):
        tokens = [rng.choice("abcde") for _ in range(rng.randint(0, 5))]
        result = mnb.score(model, tfidf_row(tokens, matrix.vocab))
        best = min(result.scores, key=lambda c: (-result.scores[c], c))
        assert result.predicted == best


def test_predict_rows_matches_row_by_row_scoring():
    texts = {"X": ["a b", "a"], "Y": ["b c", "c c"]}
    model, matrix, _ = fitted(texts)
    batch = mnb.predict_rows(model, matrix.matrix)
    singles = [
        mnb.score(model, tfidf_row(r.text.split(), matrix.vocab)).predicted
        for r in labeled_corpus(texts).records
    ]
    assert batch == singles


# ---------------------------------------------------------------------------
# brute-force equivalence


def test_fit_and_score_match_bruteforce_on_random_corpora():
    rng = random.Random(314)
    pool = list("abcdef")
    for _ in range(30):
        n_classes = rng.randint(2, 3)
        n_docs = rng.randint(n_classes, 8)
        labels = [f"C{k}" for k in range(n_classes)]
        labels += [rng.choice(labels) for _ in range(n_docs - n_classes)]
        rng.shuffle(labels)
        token_lists = [
            [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            for _ in range(n_docs)
        ]
        alpha = rng.choice([0.1, 0.5, 1.0])

        c = corpus_from_texts([" ".join(t) for t in token_lists])
        vocab = build_vocabulary(c)
        matrix = tfidf(c, vocab)
        model = mnb.fit(matrix, labels, alpha)

        rows, words, df = oracles.tfidf_rows(token_lists)
        reference = oracles.mnb_fit(rows, labels, alpha)

        assert list(model.classes) == reference["classes"]
        for k, cls in enumerate(model.classes):
            assert abs(model.priors[cls] - reference["priors"][cls]) < 1e-15
            got = np.exp(model.word_logprob[k])
            assert np.allclose(
                got, reference["word_prob"][cls], atol=1e-12, rtol=0.0
            )

        probes = token_lists + [["a", "zzz", "b"], []]
        for tokens in probes:
            lib_row = tfidf_row(tokens, vocab)
            ref_row = oracles.tfidf_row(tokens, words, df, len(token_lists))
            got = mnb.score(model, lib_row)
            want_scores, want_label = oracles.mnb_score(reference, ref_row)
            assert got.predicted == want_label
            for cls in model.classes:
                assert abs(got.scores[cls] - want_scores[cls]) < 1e-12


def old_way_scores(model, rows):
    """rows.dot(word_logprob.T) + log priors, as scoring computed it before
    the word-major table was cached on the model."""
    log_priors = np.array([math.log(model.priors[c]) for c in model.classes])
    return np.asarray(rows.dot(model.word_logprob.T)) + log_priors


def assert_scores_bit_identical(model, texts):
    rows = tfidf(corpus_from_texts(texts), model.vocab).matrix
    expected = old_way_scores(model, rows)
    for i, text in enumerate(texts):
        got = mnb.score(model, tfidf_row(text.split(), model.vocab))
        assert [got.scores[c] for c in model.classes] == list(expected[i])
    assert mnb.predict_rows(model, rows) == [
        model.classes[k] for k in np.argmax(expected, axis=1)
    ]


def test_scores_are_bit_identical_to_the_direct_product(tmp_path):
    rng = random.Random(27)
    c = random_labeled_corpus(rng, n_palos=4, pool_size=60, doc_len=(0, 40))
    vocab = build_vocabulary(c)
    model = mnb.fit(tfidf(c, vocab), [r.palo for r in c.records], 0.11)
    probes = [r.text + " zzz" for r in c.records] + ["", "zzz"]
    assert_scores_bit_identical(model, probes)

    _, (loaded, _) = roundtrip(tmp_path, model)
    assert_scores_bit_identical(loaded, probes)

    by_hand = mnb.MnbModel(
        classes=model.classes,
        priors=dict(model.priors),
        word_logprob=np.ascontiguousarray(model.word_logprob),
        alpha=model.alpha,
        vocab=vocab,
    )
    assert by_hand.word_logprob.flags.c_contiguous
    assert_scores_bit_identical(by_hand, probes)


@pytest.mark.parametrize("n_classes", [1, 2, 3, 8])
def test_scores_equal_the_csr_product_bit_for_bit(n_classes):
    # one class too, where a reduction would sum its products pairwise
    rng = random.Random(n_classes)
    c = random_labeled_corpus(rng, n_palos=n_classes, pool_size=200, doc_len=(0, 150))
    full = Corpus(r for r in c.records if r.text.split())
    vocab = build_vocabulary(full)
    model = mnb.fit(tfidf(full, vocab), [r.palo for r in full.records], 0.11)
    assert len(model.classes) == n_classes
    probes = [r.text.split() for r in c.records] + [[], ["zzz"], [vocab.words[3]]]
    probes += [rng.choices(vocab.words, k=rng.randint(1, 400)) for _ in range(50)]
    assert max(len(set(t)) for t in probes) > 100
    for tokens in probes:
        got = mnb.score(model, tfidf_row(tokens, vocab))
        want = oracles.csr_score(model, oracles.csr_tfidf_row(tokens, vocab))
        assert np.array([got.scores[k] for k in model.classes]).tobytes() == want.tobytes()
        assert got.predicted == model.classes[int(np.argmax(want))]


# ---------------------------------------------------------------------------
# persistence


def roundtrip(tmp_path, model, state=None):
    path = tmp_path / "model.json"
    mnb.save_model(model, path, state)
    return path, mnb.load_model(path)


def test_save_load_roundtrip_is_exact(tmp_path):
    model, _, _ = fitted({"X": ["a b", "a"], "Y": ["c ñaña", "c b"]}, alpha=0.11)
    state = FrozenPipeline(
        PreprocessConfig(stopwords=frozenset({"de", "la"})), frozenset()
    ).to_dict()
    path, (loaded, loaded_state) = roundtrip(tmp_path, model, state)
    assert loaded.classes == model.classes
    assert loaded.priors == model.priors
    assert loaded.alpha == model.alpha
    assert np.array_equal(loaded.word_logprob, model.word_logprob)
    assert loaded.vocab == model.vocab
    assert loaded_state == state
    assert loaded.to_json(state).encode("utf-8") == path.read_bytes()


def test_save_load_without_state(tmp_path):
    model, _, _ = fitted({"X": ["a"], "Y": ["b"]})
    _, (loaded, state) = roundtrip(tmp_path, model)
    assert state is None
    assert loaded.classes == model.classes


def test_saved_model_is_versioned_json(tmp_path):
    model, _, _ = fitted({"X": ["a"], "Y": ["b"]})
    path, _ = roundtrip(tmp_path, model)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["version"] == "mnb-v1"


def test_saved_bytes_equal_streamed_json_dump(tmp_path):
    rng = random.Random(41)
    model, _, _ = fitted({
        "X": ["a b ñaña", "a corazón"],
        "Y": [" ".join(f"w{rng.randint(0, 300)}" for _ in range(400)), "c b"],
    }, alpha=0.11)
    state = FrozenPipeline(
        PreprocessConfig(stopwords=frozenset({"de", "la"})), frozenset({"él"})
    ).to_dict()
    path, (loaded, _) = roundtrip(tmp_path, model, state)
    payload = json.loads(path.read_text(encoding="utf-8"))
    streamed = tmp_path / "streamed.json"
    with open(streamed, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, ensure_ascii=False, allow_nan=False)
        fh.write("\n")
    assert path.read_bytes() == streamed.read_bytes()
    assert loaded.to_json(state).encode("utf-8") == path.read_bytes()


def test_load_rejects_unknown_version(tmp_path):
    model, _, _ = fitted({"X": ["a"], "Y": ["b"]})
    path, _ = roundtrip(tmp_path, model)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["version"] = "mnb-v0"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="version"):
        mnb.load_model(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="JSON"):
        mnb.load_model(path)


def test_load_rejects_missing_fields(tmp_path):
    model, _, _ = fitted({"X": ["a"], "Y": ["b"]})
    path, _ = roundtrip(tmp_path, model)
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["priors"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="malformed"):
        mnb.load_model(path)


def test_load_rejects_inconsistent_shape(tmp_path):
    model, _, _ = fitted({"X": ["a"], "Y": ["b"]})
    path, _ = roundtrip(tmp_path, model)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["word_logprob"] = payload["word_logprob"][:1]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="shape"):
        mnb.load_model(path)


def test_load_missing_file_raises_io_error(tmp_path):
    with pytest.raises(CorpusIoError):
        mnb.load_model(tmp_path / "nope.json")


def test_save_refuses_non_finite_values(tmp_path):
    model, _, _ = fitted({"X": ["a"], "Y": ["b"]})
    broken = dataclasses.replace(
        model, word_logprob=np.full_like(model.word_logprob, np.nan)
    )
    with pytest.raises(ValueError, match="JSON compliant"):
        mnb.save_model(broken, tmp_path / "model.json")
    assert list(tmp_path.iterdir()) == []


def test_save_into_missing_directory_raises_io_error(tmp_path):
    model, _, _ = fitted({"X": ["a"], "Y": ["b"]})
    with pytest.raises(CorpusIoError):
        mnb.save_model(model, tmp_path / "missing" / "model.json")
