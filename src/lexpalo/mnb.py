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

from .corpus_io import atomic_write, open_text
from .errors import (
    AlphaNonPositiveError,
    LabelMismatchError,
    ModelFormatError,
    VocabularyMismatchError,
)
from .vectorize import TfIdfMatrix, TfIdfRow, Vocabulary

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
        # the |V| x n_classes table scoring reads: C-contiguous, so SciPy's
        # kernel does not copy the whole table for every matrix, and one
        # text's words gather whole rows of it
        return np.ascontiguousarray(self.word_logprob.T)

    @cached_property
    def _log_priors(self) -> np.ndarray:
        return np.array([math.log(self.priors[c]) for c in self.classes])

    def to_json(self, preprocess_state: dict | None = None) -> str:
        """The model as JSON text (format version "mnb-v1").

        ``preprocess_state`` — the frozen text-filtering state captured at
        training time — is stored alongside the model so saved classifiers can
        normalize new text exactly as their training corpus was.
        """
        payload = {
            "version": MODEL_FORMAT_VERSION,
            "classes": list(self.classes),
            "priors": {c: self.priors[c] for c in self.classes},
            "alpha": self.alpha,
            "vocab": {
                "words": list(self.vocab.words),
                "df": list(self.vocab.df),
                "n_docs": self.vocab.n_docs,
            },
            "word_logprob": self.word_logprob.tolist(),
        }
        if preprocess_state is not None:
            payload["preprocess"] = preprocess_state
        # json.dumps encodes in one C call; json.dump streams the same text
        # through the pure-Python encoder
        return json.dumps(payload, ensure_ascii=False, allow_nan=False) + "\n"


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
    """Fit the classifier on a TF-IDF matrix and aligned labels: each
    class's rows summed into its masses, then :func:`fit_from_masses`.

    Raises LabelMismatchError when labels do not align with the matrix rows,
    and AlphaNonPositiveError unless :func:`check_alpha` accepts alpha over
    the matrix's vocabulary.
    """
    labels = np.array(list(labels), dtype=object)
    if len(labels) != matrix.matrix.shape[0]:
        raise LabelMismatchError(
            f"{len(labels)} labels for {matrix.matrix.shape[0]} matrix rows"
        )
    classes, label, counts = np.unique(labels, return_inverse=True, return_counts=True)
    rows, n_words = matrix.matrix, matrix.matrix.shape[1]
    # each class's rows summed in row order, as a sum over its rows alone adds
    cell = np.repeat(label * n_words, np.diff(rows.indptr)) + rows.indices
    mass = np.bincount(cell, weights=rows.data, minlength=len(classes) * n_words)
    return fit_from_masses(matrix.vocab, classes, mass.reshape(-1, n_words), counts, alpha)


def fit_from_masses(vocab: Vocabulary, classes, mass, counts, alpha: float) -> MnbModel:
    """The classifier of ``classes``, in sorted order, from their TF-IDF
    masses (a C-contiguous row per class over ``vocab``'s words, each the
    sum of the class's training rows) and their training document counts.

    Raises AlphaNonPositiveError unless :func:`check_alpha` accepts alpha
    over the vocabulary.
    """
    check_alpha(alpha, len(vocab.words))
    smoothed = alpha + mass
    return MnbModel(
        classes=tuple(classes),
        priors={c: float(counts[k] / counts.sum()) for k, c in enumerate(classes)},
        word_logprob=np.log(smoothed) - np.log(smoothed.sum(axis=1))[:, None],
        alpha=alpha,
        vocab=vocab,
    )


def _check_width(model: MnbModel, width: int) -> None:
    if width != len(model.vocab.words):
        raise VocabularyMismatchError(
            f"document vector has {width} columns, model vocabulary "
            f"has {len(model.vocab.words)}"
        )


def score(model: MnbModel, row: TfIdfRow) -> ClassScores:
    """Score one document's :func:`vectorize.tfidf_row`.

    Each class adds its products in column order, as SciPy's CSR product
    adds them, so a text scores as its row of a matrix does in
    :func:`predict_rows`. An empty row degrades to prior-only scores. Ties
    go to the first class in the model's sorted class order.
    """
    _check_width(model, row.width)
    products = model._logprob_by_word[row.columns] * row.values[:, None]
    # accumulate adds in order for any class count; a reduction over one
    # class would sum pairwise
    total = np.add.accumulate(products)[-1] if len(products) else 0.0
    scores = total + model._log_priors
    return ClassScores(
        scores=dict(zip(model.classes, scores.tolist())),
        predicted=model.classes[int(np.argmax(scores))],
    )


def predict_rows(model: MnbModel, rows) -> list[str]:
    """Predict a label per row of a SciPy sparse document matrix (n x |V|)."""
    _check_width(model, rows.shape[1])
    scores = rows.dot(model._logprob_by_word) + model._log_priors
    return [model.classes[k] for k in np.argmax(scores, axis=1)]


def save_model(model: MnbModel, path, preprocess_state: dict | None = None) -> None:
    """Persist ``model.to_json(preprocess_state)`` atomically."""
    atomic_write(path, model.to_json(preprocess_state))


def _texts(value) -> bool:
    return isinstance(value, list) and set(map(type, value)) <= {str}


def _distinct_texts(value) -> bool:
    return _texts(value) and 0 < len(value) == len(set(value))


def _positive(value) -> bool:
    return type(value) in (int, float) and 0 < value < math.inf


# what each field of a model file must hold, by dotted path; the preprocess
# fields are checked when the file stores a preprocessing state. Numbers are
# checked by type, not isinstance, so that a JSON boolean is never a number.
_FIELDS = {
    "classes": _distinct_texts,
    "priors": lambda v: isinstance(v, dict) and all(map(_positive, v.values())),
    "alpha": _positive,
    "vocab.words": _distinct_texts,
    "vocab.df": lambda v: isinstance(v, list) and set(map(type, v)) <= {int},
    "vocab.n_docs": lambda v: type(v) is int,
    "word_logprob": lambda v: isinstance(v, list),
    "preprocess.gamma": lambda v: type(v) in (int, float),
    "preprocess.punctuation": lambda v: isinstance(v, str),
    "preprocess.stopwords": _texts,
    "preprocess.concat_map": lambda v: isinstance(v, list) and all(
        type(pair) is list and len(pair) == 2 and _texts(pair) for pair in v
    ),
    "preprocess.lowered_words": _texts,
}


def _field(payload, name: str):
    """The value at a dotted path of the payload (None when missing)."""
    for key in name.split("."):
        payload = payload.get(key) if isinstance(payload, dict) else None
    return payload


def load_model(path) -> tuple[MnbModel, dict | None]:
    """Load a model persisted by :func:`save_model`.

    Returns the model and the stored preprocessing state (None when absent).
    Raises CorpusIoError for unreadable files and ModelFormatError for
    unknown versions or malformed content: a payload that is not a JSON
    object, a field missing or not of the kind ``_FIELDS`` gives it,
    document frequencies that do not fit the words or the document count,
    priors that do not name exactly the classes or sum to 1, log-probs that
    are not floats, of the wrong shape, not finite, above 0, or whose exp does
    not sum to 1 per class (sums within 1e-6).
    """
    with open_text(path, "model file") as fh:
        try:
            payload = json.load(fh)
        # ValueError covers bad JSON, bad UTF-8 and over-long integers
        except (ValueError, RecursionError) as exc:
            raise ModelFormatError(
                f"model file {path} is not valid UTF-8 JSON: {exc}"
            ) from exc
    if not isinstance(payload, dict):
        raise ModelFormatError(
            f"model file {path} holds a JSON {type(payload).__name__}, "
            f"not an object"
        )
    version = payload.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION!r})"
        )
    state = payload.get("preprocess")
    bad = [name for name, ok in _FIELDS.items() if not ok(_field(payload, name))
           and (state is not None or not name.startswith("preprocess."))]
    if bad:
        raise ModelFormatError(
            f"model file {path} has a missing or malformed {', '.join(bad)}"
        )
    words = tuple(payload["vocab"]["words"])
    try:
        vocab = Vocabulary(
            words=words,
            df=tuple(payload["vocab"]["df"]),
            n_docs=payload["vocab"]["n_docs"],
        )
        model = MnbModel(
            classes=tuple(payload["classes"]),
            priors=dict(payload["priors"]),
            word_logprob=np.asarray(payload["word_logprob"]),  # "-1.5" stays text
            alpha=payload["alpha"],
            vocab=vocab,
        )
        if len(vocab.df) != len(words):
            raise ValueError(
                f"{len(vocab.df)} document frequencies for {len(words)} words"
            )
        if not 1 <= min(vocab.df) <= max(vocab.df) <= vocab.n_docs:
            raise ValueError(f"document frequencies must lie in [1, {vocab.n_docs}]")
        if set(model.priors) != set(model.classes):
            raise ValueError(
                f"priors name {list(model.priors)}, classes are "
                f"{list(model.classes)}"
            )
        if abs(math.fsum(model.priors.values()) - 1) > 1e-6:
            raise ValueError("priors do not sum to 1")
        if model.word_logprob.dtype.kind != "f":
            raise ValueError("log-probs are not all numbers")
        # OverflowError for counts too large for a float
        if not np.isfinite(vocab.idf).all():
            raise ValueError("document frequencies give a non-finite idf")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"model file {path} is malformed: {exc}") from exc
    if model.word_logprob.shape != (len(model.classes), len(words)):
        raise ModelFormatError(
            f"model file {path} has log-prob shape "
            f"{model.word_logprob.shape}, expected "
            f"({len(model.classes)}, {len(words)})"
        )
    logprob = model.word_logprob
    if not np.isfinite(logprob).all():
        raise ModelFormatError(f"model file {path} has non-finite log-probs")
    # > 0 is checked first: exp overflows on a large log-prob
    if (logprob > 0).any() or (abs(np.exp(logprob).sum(axis=1) - 1) > 1e-6).any():
        raise ModelFormatError(f"model file {path} has log-probs above 0 or "
                               f"a class whose probabilities do not sum to 1")
    return model, state
