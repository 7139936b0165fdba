"""Multinomial naive Bayes over TF-IDF features with additive smoothing.

Training accumulates, per class C, the TF-IDF mass of every vocabulary word
across the class's documents and smooths it with alpha > 0:

    P(w|C) = (alpha + sum_{d in C} tfidf(w, d))
             / sum_{w' in V} (alpha + sum_{d in C} tfidf(w', d))

Priors are class frequencies among the training documents. Scoring is done
in log space:

    score(C|d) = ln P(C) + sum_{w in d} ln P(w|C) * tfidf(w, d)

with out-of-vocabulary words dropped; the predicted class is the argmax,
ties resolved in favor of the first class in sorted order. A document with
an all-zero vector is scored by priors alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .corpus_io import atomic_write
from .errors import (
    AlphaNonPositiveError,
    CorpusIoError,
    LabelMismatchError,
    ModelFormatError,
    UnknownClassError,
    VocabularyMismatchError,
)
from .vectorize import TfIdfMatrix, Vocabulary

MODEL_FORMAT_VERSION = "mnb-v1"


@dataclass(frozen=True)
class MnbModel:
    """A fitted classifier: class order, priors, per-class word log-probs
    (shape n_classes x |V|, rows aligned with ``classes``), the smoothing
    value, and the training vocabulary."""

    classes: tuple[str, ...]
    priors: dict[str, float]
    word_logprob: np.ndarray
    alpha: float
    vocab: Vocabulary

    @cached_property
    def _logprob_by_word(self) -> np.ndarray:
        # the |V| x n_classes table sparse scoring reads: C-contiguous, so
        # SciPy's kernel does not copy the whole table for every document
        return np.ascontiguousarray(self.word_logprob.T)


@dataclass(frozen=True)
class ClassScores:
    """Log-space class scores for one document and the argmax class."""

    scores: dict[str, float]
    predicted: str


def check_alpha(alpha: float, n_words: int) -> None:
    """Raise AlphaNonPositiveError unless alpha is finite and > 0 and the
    smoothing mass alpha * |V| it adds over ``n_words`` words is finite."""
    if not (0 < alpha < math.inf and math.isfinite(alpha * n_words)):
        raise AlphaNonPositiveError(
            f"alpha must be finite and > 0 with alpha * |V| finite, got "
            f"{alpha} for |V| = {n_words}"
        )


def fit(matrix: TfIdfMatrix, labels, alpha: float) -> MnbModel:
    """Fit the classifier on a TF-IDF matrix and aligned labels.

    Raises AlphaNonPositiveError unless :func:`check_alpha` accepts alpha
    over the matrix's vocabulary, and LabelMismatchError when labels do not
    align with the matrix rows.
    """
    check_alpha(alpha, matrix.matrix.shape[1])
    labels = list(labels)
    if len(labels) != matrix.matrix.shape[0]:
        raise LabelMismatchError(
            f"{len(labels)} labels for {matrix.matrix.shape[0]} matrix rows"
        )
    classes = tuple(sorted(set(labels)))
    label_arr = np.asarray(labels, dtype=object)
    smoothed = np.empty((len(classes), matrix.matrix.shape[1]))
    counts = np.empty(len(classes))
    for k, cls in enumerate(classes):
        row_ix = np.flatnonzero(label_arr == cls)
        counts[k] = len(row_ix)
        smoothed[k] = alpha + np.asarray(matrix.matrix[row_ix].sum(axis=0)).ravel()
    return MnbModel(
        classes=classes,
        priors={c: float(counts[k] / counts.sum()) for k, c in enumerate(classes)},
        word_logprob=np.log(smoothed) - np.log(smoothed.sum(axis=1))[:, None],
        alpha=alpha,
        vocab=matrix.vocab,
    )


def _score_matrix(model: MnbModel, rows) -> np.ndarray:
    """Score many documents at once: rows (n x |V|) -> scores (n x n_classes)."""
    if rows.shape[1] != len(model.vocab.words):
        raise VocabularyMismatchError(
            f"document vector has {rows.shape[1]} columns, model vocabulary "
            f"has {len(model.vocab.words)}"
        )
    log_priors = np.array([math.log(model.priors[c]) for c in model.classes])
    if sp.issparse(rows):
        contrib = rows.dot(model._logprob_by_word)
    else:
        contrib = rows.dot(model.word_logprob.T)
    return np.asarray(contrib) + log_priors


def score(model: MnbModel, doc_vector) -> ClassScores:
    """Score one document vector (1 x |V| sparse row or dense vector).

    An all-zero vector degrades to prior-only scores. Ties go to the first
    class in the model's sorted class order.
    """
    if not sp.issparse(doc_vector):
        doc_vector = np.asarray(doc_vector, dtype=float).reshape(1, -1)
    scores = _score_matrix(model, doc_vector)[0]
    predicted = model.classes[int(np.argmax(scores))]
    return ClassScores(
        scores={c: float(s) for c, s in zip(model.classes, scores)},
        predicted=predicted,
    )


def predict_rows(model: MnbModel, rows) -> list[str]:
    """Predict a label per row of a (sparse) document matrix."""
    scores = _score_matrix(model, rows)
    return [model.classes[k] for k in np.argmax(scores, axis=1)]


def word_logprob_table(model: MnbModel, palo: str) -> list[tuple[str, float]]:
    """All (word, ln P(word|palo)) pairs, most probable first; ties on the
    log-probability break lexicographically."""
    if palo not in model.classes:
        raise UnknownClassError(
            f"{palo!r} is not one of the fitted classes {list(model.classes)}"
        )
    k = model.classes.index(palo)
    logs = model.word_logprob[k]
    order = sorted(range(len(logs)), key=lambda j: (-logs[j], model.vocab.words[j]))
    return [(model.vocab.words[j], float(logs[j])) for j in order]


def save_model(model: MnbModel, path, preprocess_state: dict | None = None) -> None:
    """Persist a model as JSON (format version "mnb-v1"), atomically.

    ``preprocess_state`` — the frozen text-filtering state captured at
    training time — is stored alongside the model so saved classifiers can
    normalize new text exactly as their training corpus was.
    """
    payload = {
        "version": MODEL_FORMAT_VERSION,
        "classes": list(model.classes),
        "priors": {c: model.priors[c] for c in model.classes},
        "alpha": model.alpha,
        "vocab": {
            "words": list(model.vocab.words),
            "df": list(model.vocab.df),
            "n_docs": model.vocab.n_docs,
        },
        "word_logprob": [list(map(float, row)) for row in model.word_logprob],
    }
    if preprocess_state is not None:
        payload["preprocess"] = preprocess_state

    def write(fh):
        json.dump(payload, fh, ensure_ascii=False, allow_nan=False)
        fh.write("\n")

    atomic_write(path, write)


def load_model(path) -> tuple[MnbModel, dict | None]:
    """Load a model persisted by :func:`save_model`.

    Returns the model and the stored preprocessing state (None when absent).
    Raises CorpusIoError for unreadable files and ModelFormatError for
    unknown versions or malformed content: missing fields, document
    frequencies that do not fit the words or the document count, priors that
    do not name exactly the classes or are not positive, log-probs of the
    wrong shape or not finite.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ModelFormatError(
                    f"model file {path} is not valid UTF-8 JSON: {exc}"
                ) from exc
    except OSError as exc:
        raise CorpusIoError(f"cannot read model file {path}: {exc}") from exc
    version = payload.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION!r})"
        )
    try:
        words = tuple(payload["vocab"]["words"])
        vocab = Vocabulary(
            words=words,
            index={w: i for i, w in enumerate(words)},
            df=tuple(payload["vocab"]["df"]),
            n_docs=payload["vocab"]["n_docs"],
        )
        model = MnbModel(
            classes=tuple(payload["classes"]),
            priors=dict(payload["priors"]),
            word_logprob=np.asarray(payload["word_logprob"], dtype=float),
            alpha=payload["alpha"],
            vocab=vocab,
        )
        # comparisons with anything but numbers raise TypeError
        if len(vocab.df) != len(words):
            raise ValueError(
                f"{len(vocab.df)} document frequencies for {len(words)} words"
            )
        if words and not 1 <= min(vocab.df) <= max(vocab.df) <= vocab.n_docs:
            raise ValueError(f"document frequencies must lie in [1, {vocab.n_docs}]")
        if not model.classes or set(model.priors) != set(model.classes):
            raise ValueError(
                f"priors name {list(model.priors)}, classes are "
                f"{list(model.classes)}"
            )
        if not all(0 < p < math.inf for p in model.priors.values()):
            raise ValueError("priors must be positive and finite")
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model file {path} is malformed: {exc}") from exc
    if model.word_logprob.shape != (len(model.classes), len(words)):
        raise ModelFormatError(
            f"model file {path} has log-prob shape "
            f"{model.word_logprob.shape}, expected "
            f"({len(model.classes)}, {len(words)})"
        )
    if not np.isfinite(model.word_logprob).all():
        raise ModelFormatError(f"model file {path} has non-finite log-probs")
    return model, payload.get("preprocess")
