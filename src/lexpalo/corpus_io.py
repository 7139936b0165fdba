"""Lyric corpora, and every file lexpalo reads or writes.

A corpus is an ordered collection of labeled songs. The canonical on-disk
format is JSON Lines with one object per song carrying at least ``id``,
``palo`` (genre label) and ``text``; any additional keys are kept as string
metadata. A CSV reader accepts the same schema (extra columns become
metadata). Both readers only parse; one check in ``load_corpus`` holds every
record to the same rule. Every input file is opened through ``open_text``
and every output file written through ``atomic_write``.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import random
import secrets
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import (
    CorpusIoError,
    DuplicateIdError,
    EmptyCorpusError,
    FormatError,
    StratumTooSmallError,
)
from .seeding import derive_seed

REQUIRED_KEYS = ("id", "palo", "text")


class _Text:
    """:class:`LyricRecord`'s ``text`` field, stored under ``_text``: a str,
    or an :class:`_Unread` mark, which the first read replaces by its text."""

    def __get__(self, rec, owner=None):
        if rec is None:  # the field has no default
            raise AttributeError("text")
        text = rec._text
        if type(text) is _Unread:
            text = text.texts.join(text.i)
            object.__setattr__(rec, "_text", text)
        return text

    def __set__(self, rec, text):
        object.__setattr__(rec, "_text", text)


@dataclass(frozen=True)
class LyricRecord:
    """One song: identifier, text, genre label, and optional metadata.

    The records of a corpus made by :func:`texts_from_ids`, as a
    preprocessed one is, hold no text until it is first read: it is then
    joined from the corpus's word ids and kept, so equality, ``repr``,
    ``dataclasses.replace`` and pickling see the same text. The commands
    read the word ids, never such a text."""

    id: str
    text: str = _Text()
    palo: str
    metadata: dict[str, str] = field(default_factory=dict)


class _Texts:
    """Texts as word ids, as a :class:`Corpus` carries them: text i is the
    words of ``ids[offsets[i]:offsets[i + 1]]`` joined by single spaces."""

    def join(self, i: int) -> str:
        if isinstance(self.words, str):  # split once, on the first join
            self.words = self.words.split()
        ids = self.ids[self.offsets[i]:self.offsets[i + 1]].tolist()
        return " ".join(map(self.words.__getitem__, ids))


class _Unread(NamedTuple):
    """Text ``i`` of ``texts``, not yet read."""

    texts: _Texts
    i: int


class Corpus:
    """Immutable ordered collection of lyric records, indexed by palo.

    Invariants enforced here: at least one record, ids unique and non-empty,
    palo labels non-empty. Text may be empty only in derived corpora (the
    file loaders additionally reject empty text).
    """

    def __init__(self, records):
        records = tuple(records)
        if not records:
            raise EmptyCorpusError("corpus has no records")
        positions: dict[str, int] = {}
        palo_index: dict[str, list[int]] = {}
        for pos, rec in enumerate(records):
            if not rec.id:
                raise FormatError(f"record at position {pos} has an empty id")
            if not rec.palo:
                raise FormatError(f"record {rec.id!r} has an empty palo label")
            if rec.id in positions:
                raise DuplicateIdError(
                    f"duplicate id {rec.id!r} at positions "
                    f"{positions[rec.id]} and {pos}"
                )
            positions[rec.id] = pos
            palo_index.setdefault(rec.palo, []).append(pos)
        self.records: tuple[LyricRecord, ...] = records
        self.palo_index: dict[str, tuple[int, ...]] = {
            p: tuple(ix) for p, ix in palo_index.items()
        }
        self._ids = None  # the word ids token_ids returns, once made

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __eq__(self, other) -> bool:
        return isinstance(other, Corpus) and self.records == other.records

    @property
    def palos(self) -> tuple[str, ...]:
        """Palo labels in order of first appearance."""
        return tuple(self.palo_index)


@dataclass(frozen=True)
class TokenIds:
    """A corpus's whitespace tokens as integer word ids: record i's tokens
    are ``words[j] for j in ids[offsets[i]:offsets[i + 1]]``."""

    corpus: Corpus
    ids: np.ndarray  # int32 word id per token, records in corpus order
    offsets: np.ndarray  # int64, one per record plus one
    words: tuple[str, ...]  # in order of first appearance


class _FirstSeenIds(dict):
    """Word -> id in order of first occurrence, assigned on lookup."""

    def __missing__(self, word):
        self[word] = len(self)
        return len(self) - 1


def word_ids(texts) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The whitespace tokens of a sequence of texts as int32 word ids, words
    numbered in order of first occurrence: ``(ids, offsets, words)``, text
    i's ids ``ids[offsets[i]:offsets[i + 1]]`` (4 bytes a token; no token
    list is held)."""
    offsets = np.zeros(len(texts) + 1, dtype=np.int64)

    def tokens():
        for i, text in enumerate(texts, start=1):
            doc = text.split()
            offsets[i] = len(doc)
            yield doc

    ids = _FirstSeenIds()
    seen = np.fromiter(map(ids.__getitem__, chain.from_iterable(tokens())), np.int32)
    return seen, np.cumsum(offsets), tuple(ids)


def _held(ids, offsets, words):
    """Read-only ids, and the words (none holds whitespace) as one text."""
    ids.flags.writeable = offsets.flags.writeable = False
    return ids, offsets, " ".join(words)


def token_ids(corpus: Corpus) -> TokenIds:
    """The corpus's tokens as word ids: those it carries (a preprocessed
    corpus does), or else its texts tokenized by :func:`word_ids` on the
    first call, which the corpus then carries: they are made at most once."""
    if corpus._ids is None:
        corpus._ids = _held(*word_ids([rec.text for rec in corpus.records]))
    ids, offsets, words = corpus._ids
    return TokenIds(corpus, ids, offsets, tuple(words.split()))


def texts_from_ids(records, ids) -> Corpus:
    """A corpus of ``records``' ids, palos and metadata that carries
    ``ids``, the ``(ids, offsets, words)`` that :func:`word_ids` gives for
    its texts, which :func:`token_ids` then returns: they are not checked
    against the texts. Those texts are the tokens joined by single spaces,
    each made when first read. The records' own texts are not read."""
    texts = _Texts()
    corpus = Corpus(
        LyricRecord(rec.id, _Unread(texts, i), rec.palo, rec.metadata)
        for i, rec in enumerate(records)
    )
    corpus._ids = texts.ids, texts.offsets, texts.words = _held(*ids)
    return corpus


@dataclass(frozen=True)
class SplitSpec:
    """Parameters of one stratified train/validation split."""

    train_fraction: float = 0.85
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must lie strictly between 0 and 1, "
                f"got {self.train_fraction}"
            )


def load_corpus(path, format: str = "jsonl") -> Corpus:
    """Read a corpus file.

    Args:
        path: file to read, UTF-8 with or without a byte-order mark.
        format: ``"jsonl"`` (canonical) or ``"csv"``.

    Raises:
        CorpusIoError: unreadable file.
        FormatError: malformed record (message cites the line number).
        DuplicateIdError: repeated id (message cites both line numbers).
        EmptyCorpusError: no records.
    """
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown corpus format {format!r}")
    records = []
    seen: dict[str, int] = {}
    with open_text(path, "corpus file", newline="") as fh:
        rows = _read_jsonl(fh) if format == "jsonl" else _read_csv(fh)
        for line, rec_id, palo, text, metadata in rows:
            if not isinstance(rec_id, str) or not rec_id.strip():
                raise FormatError("'id' must be a non-empty string", line)
            if not isinstance(palo, str) or not palo.strip():
                raise FormatError("'palo' must be a non-empty string", line)
            if not isinstance(text, str) or not text.strip():
                raise FormatError("'text' must be a non-empty string", line)
            if not _encodable(f"{rec_id}{palo}{text}"):
                raise FormatError("'id', 'palo' or 'text' holds a lone surrogate", line)
            if rec_id in seen:
                raise DuplicateIdError(
                    f"duplicate id {rec_id!r} on lines {seen[rec_id]} and {line}"
                )
            seen[rec_id] = line
            records.append(LyricRecord(rec_id, text, palo, metadata))
    if not records:
        raise EmptyCorpusError(f"corpus file {path} contains no records")
    return Corpus(records)


def _encodable(value: str) -> bool:
    """Whether ``value`` holds no lone surrogate, which UTF-8 cannot encode.
    Latin-1 is tried first: CPython encodes a one-byte string by copying."""
    for encoding in ("latin-1", "utf-8"):
        try:
            value.encode(encoding)
            return True
        except UnicodeEncodeError:
            pass
    return False


def _read_jsonl(fh):
    """Yield (line, id, palo, text, metadata) per non-blank line."""
    for line_no, raw in enumerate(fh, start=1):
        if raw.isspace():
            continue
        try:
            obj = json.loads(raw)
        # ValueError also covers integers past the interpreter's digit limit
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line_no) from exc
        if not isinstance(obj, dict):
            raise FormatError("record is not a JSON object", line_no)
        missing = [k for k in REQUIRED_KEYS if k not in obj]
        if missing:
            raise FormatError(f"missing required key(s) {missing}", line_no)
        # non-string metadata is kept as canonical JSON: save -> load round-trips
        metadata = {
            k: v if isinstance(v, str) else json.dumps(v, ensure_ascii=False)
            for k, v in obj.items() if k not in REQUIRED_KEYS
        }
        yield line_no, obj["id"], obj["palo"], obj["text"], metadata


def _read_csv(fh):
    """Yield (line, id, palo, text, metadata) per row; a missing cell is None."""
    reader = csv.DictReader(fh)
    try:
        if reader.fieldnames is None:
            return
        missing = [k for k in REQUIRED_KEYS if k not in reader.fieldnames]
        if missing:
            raise FormatError(f"CSV header is missing column(s) {missing}", 1)
        for row in reader:
            if None in row and row[None]:
                raise FormatError("row has more fields than the header", reader.line_num)
            metadata = {
                k: v for k, v in row.items()
                if k not in REQUIRED_KEYS and k is not None and v is not None
            }
            yield reader.line_num, row["id"], row["palo"], row["text"], metadata
    except csv.Error as exc:  # a field past the csv module's size limit
        raise FormatError(f"invalid CSV: {exc}", reader.reader.line_num) from exc


@contextlib.contextmanager
def open_text(path, what: str, newline=None):
    """Open a UTF-8 text file for reading, less a leading byte-order mark.
    Raises CorpusIoError, calling the file ``what``, when it cannot be read
    or is not UTF-8."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise CorpusIoError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusIoError(f"{what} {path} is not UTF-8 text: {exc}") from exc


def read_text(path, what: str) -> str:
    """The contents of a UTF-8 text file, read through :func:`open_text`."""
    with open_text(path, what) as fh:
        return fh.read()


def atomic_write(path, text: str) -> None:
    """Write ``text`` as a UTF-8 file via a temporary sibling and a rename,
    so readers never see a partial file. The file gets the mode ``open()``
    gives under the umask; a failed write leaves the target as it was and no
    temporary file. Raises CorpusIoError when it cannot write."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CorpusIoError(f"cannot write {path}: {exc}") from exc


def filter_top_palos(corpus: Corpus, min_lyrics: int) -> Corpus:
    """Keep only records whose palo has at least ``min_lyrics`` records.

    Relative record order is preserved. Raises EmptyCorpusError when no palo
    is represented well enough.
    """
    if min_lyrics < 1:
        raise ValueError(f"min_lyrics must be >= 1, got {min_lyrics}")
    keep = {p for p, ix in corpus.palo_index.items() if len(ix) >= min_lyrics}
    if not keep:
        raise EmptyCorpusError(f"no palo has at least {min_lyrics} lyrics")
    return Corpus(r for r in corpus.records if r.palo in keep)


def split_positions(corpus: Corpus, spec: SplitSpec) -> np.ndarray:
    """Sorted record positions of the validation side; the train side is
    every other record.

    Per palo, the train count is round-half-up(train_fraction * n) clamped to
    [1, n-1], so both sides always see every palo. Membership is decided by a
    shuffle-then-cut with a PRNG seeded from (seed, palo name): validation is
    the tail ``order[n_train:]`` of ``random.Random(seed).shuffle(order)``.
    That shuffle swaps ``order[i]`` with ``order[randbelow(i + 1)]`` for i
    from n-1 down, so the tail is final after its first n - n_train draws;
    only those are made, each as CPython's ``randbelow`` makes it: draws of
    as many bits as the bound has, until one lies below the bound.

    Raises StratumTooSmallError when some palo has fewer than 2 records.
    """
    val_ix: list[int] = []
    for palo, positions in corpus.palo_index.items():
        n = len(positions)
        if n < 2:
            raise StratumTooSmallError(
                f"palo {palo!r} has only {n} record(s); need at least 2 to split"
            )
        n_train = math.floor(spec.train_fraction * n + 0.5)  # round half-up
        n_train = min(max(n_train, 1), n - 1)
        order = list(positions)
        getrandbits = random.Random(derive_seed(spec.seed, "stratum", palo)).getrandbits
        for i in range(n - 1, n_train - 1, -1):
            while (j := getrandbits((i + 1).bit_length())) > i:
                pass
            order[i], order[j] = order[j], order[i]
        val_ix.extend(order[n_train:])
    return np.array(sorted(val_ix), dtype=np.intp)
