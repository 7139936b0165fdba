"""Text-filtering pipeline for lyric corpora.

Stages, applied in this order over a whole corpus:

1. multiword-phrase concatenation ("Santa Ana" -> "SantaAna"), so proper
   names survive tokenization as single tokens;
2. corpus-level case normalization: a word observed capitalized is lowered
   everywhere iff its capitalized occurrences are rare relative to gamma
   (N_w < gamma * (n_w + N_w)); frequent capitalization marks proper nouns,
   which keep their case;
3. accent and punctuation stripping (combining marks removed, the tilde of
   n-with-tilde preserved, u-with-diaeresis mapped to plain u);
4. whitespace tokenization;
5. case-sensitive stop-word removal.

Records whose text filters down to nothing are retained with empty text and
counted in a warning, so corpus alignment never silently changes.

Stages 2-5 act on each whitespace token alone. A corpus runs them once over
its distinct raw tokens, each stage as one pass over those tokens joined by
"\\n": one ``str.lower``, and, on Latin-1 text (as Spanish lyrics almost
always are), one ``bytes.translate`` that deletes the punctuation and one
that strips the accents. Only tokens outside Latin-1 take ``str.translate``
and Unicode decomposition, one at a time. Stage 1 runs its regex only on
texts whose casefold holds a phrase's, and there only between the first and
the last such casefold.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from operator import itemgetter
from importlib import resources as importlib_resources

import numpy as np

from .corpus_io import Corpus, read_text, texts_from_ids, word_ids
from .errors import FormatError, ModelFormatError

logger = logging.getLogger(__name__)

DEFAULT_GAMMA = 0.2
# Includes the literal backslash; everything else is common Spanish lyric
# punctuation (inverted marks included).
DEFAULT_PUNCTUATION = frozenset(",;.:¡!¿?@#\\$")
_COMBINING_TILDE = "̃"


@dataclass(frozen=True)
class PreprocessConfig:
    """Knobs of the filtering pipeline.

    concat_map entries are (multiword phrase, joined replacement) pairs;
    stopwords are matched case-sensitively against fully normalized tokens.
    """

    gamma: float = DEFAULT_GAMMA
    concat_map: tuple[tuple[str, str], ...] = ()
    stopwords: frozenset[str] = frozenset()
    punctuation: frozenset[str] = DEFAULT_PUNCTUATION

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        for phrase, joined in self.concat_map:
            if fault := _pair_fault(phrase, joined):
                raise ValueError(fault)
        for word in self.stopwords:
            if fault := _stopword_fault(word):
                raise ValueError(fault)


def _pair_fault(phrase: str, joined: str) -> str | None:
    """Why a concat-map pair breaks the pair rule, or None when it keeps it."""
    if len(phrase.split()) < 2:
        return f"concat-map phrase {phrase!r} is not multiword"
    if not joined or joined.split() != [joined]:
        return f"concat-map replacement {joined!r} must be a single token"
    return None


def _stopword_fault(word: str, what: str = "stop word") -> str | None:
    """Why a stop word, called ``what``, is not a single token, or None when
    it is one."""
    if not word or word.split() != [word]:
        return f"{what} {word!r} contains whitespace"
    return None


def load_stopwords(path) -> frozenset[str]:
    """Read a stop-word file: one token per line, '#' comments, blanks ignored."""
    lines = read_text(path, "stop-word file").split("\n")
    words = []
    for ln, raw in enumerate(lines, start=1):
        entry = raw.strip()
        if not entry or entry.startswith("#"):
            continue
        if fault := _stopword_fault(entry, "stop-word entry"):
            raise FormatError(fault, ln)
        words.append(entry)
    return frozenset(words)


def load_concat_map(path) -> tuple[tuple[str, str], ...]:
    """Read a concat-map file: tab-separated ``phrase<TAB>replacement`` lines."""
    lines = read_text(path, "concat-map file").split("\n")
    pairs = []
    for ln, entry in enumerate(lines, start=1):
        if not entry.strip() or entry.startswith("#"):
            continue
        parts = entry.split("\t")
        if len(parts) != 2:
            raise FormatError(
                "concat-map line must be 'phrase<TAB>replacement'", ln
            )
        if fault := _pair_fault(*parts):
            raise FormatError(fault, ln)
        pairs.append((parts[0], parts[1]))
    return tuple(pairs)


def default_config(gamma: float = DEFAULT_GAMMA) -> PreprocessConfig:
    """The packaged defaults: Spanish stop words and proper-name concat map."""
    res = importlib_resources.files("lexpalo")
    with importlib_resources.as_file(res / "resources" / "stopwords_es.txt") as p:
        stopwords = load_stopwords(p)
    with importlib_resources.as_file(res / "resources" / "concat_map.tsv") as p:
        concat_map = load_concat_map(p)
    return PreprocessConfig(gamma=gamma, concat_map=concat_map, stopwords=stopwords)


# Dotted capital I and dotless small i: re.IGNORECASE matches them to i and
# I, whose casefolds differ from theirs. Any other two characters it matches
# have equal casefolds.
_DOTTED_I = ("\u0130", "\u0131")


@lru_cache(maxsize=16)
def _concat_pattern(pairs: tuple[tuple[str, str], ...]):
    """The regex of all phrases, the replacement of each of its groups, and
    the distinct phrase casefolds in phrase order (None when a phrase holds
    a letter of _DOTTED_I, so that every text is scanned whole)."""
    # Longest phrase first so overlapping phrases resolve deterministically.
    ordered = sorted(pairs, key=lambda kv: (-len(kv[0]), kv[0]))
    # Phrases equal but for case share the replacement of the last of them
    # in this order.
    by_lower = {p.lower(): joined for p, joined in ordered}
    pattern = re.compile(
        r"\b(?:" + "|".join(f"({re.escape(p)})" for p, _ in ordered) + r")\b",
        re.IGNORECASE,
    )
    replacements = (None, *(by_lower[p.lower()] for p, _ in ordered))
    if any(c in p for p, _ in ordered for c in _DOTTED_I):
        return pattern, replacements, None
    return pattern, replacements, tuple(dict.fromkeys(p.casefold() for p, _ in ordered))


def _concat(text: str, pattern, replacements, folds) -> str:
    # Outside _DOTTED_I, characters re.IGNORECASE matches have equal
    # casefolds, and casefold maps each character on its own, so a phrase
    # can match only where its casefold occurs in the text's casefold.
    start, end = 0, len(text)
    if folds is not None and not any(c in text for c in _DOTTED_I):
        folded_text = text.casefold()
        present = [fold for fold in folds if fold in folded_text]
        if not present:
            return text
        if len(folded_text) == len(text):
            # each character folds to one, at its own place: every match
            # lies between the first and the last casefold hit, and its \b
            # reads one more character on either side
            start = max(min(map(folded_text.find, present)) - 1, 0)
            end = max(folded_text.rfind(fold) + len(fold) for fold in present) + 1
    window = pattern.sub(lambda m: replacements[m.lastindex], text[start:end])
    return text[:start] + window + text[end:]


def apply_concat_map(text: str, config: PreprocessConfig) -> str:
    """Replace configured multiword phrases (case-insensitive, word-bounded)
    with their single-token forms."""
    if not config.concat_map:
        return text
    return _concat(text, *_concat_pattern(config.concat_map))


def _latin1_table() -> bytes:
    """Each Latin-1 byte -> the byte of its character with accents stripped:
    a letter that decomposes into an ASCII base and combining marks -> its
    base, n-with-tilde aside. Latin-1 holds no combining mark and every
    Latin-1 text is in NFC, so on such text the table does what
    :func:`_strip_accents` does."""
    table = bytearray(range(256))
    for code in range(0x80, 0x100):
        base, *marks = unicodedata.normalize("NFD", chr(code))
        if (marks and base.isascii() and base not in "nN"
                and all(map(unicodedata.combining, marks))):
            table[code] = ord(base)
    return bytes(table)


_LATIN1_TABLE = _latin1_table()
_WIDE = re.compile("[^\x00-\xff]")
_FIRST = itemgetter(slice(None, 1))  # a word's first character, "" for ""


def _strip_accents(text: str) -> str:
    """Stage 3's accent stripping of a token outside Latin-1: decomposed,
    its combining marks dropped but for a tilde after n or N, recomposed."""
    kept: list[str] = []
    for ch in unicodedata.normalize("NFD", text):
        if unicodedata.combining(ch):
            if ch == _COMBINING_TILDE and kept and kept[-1] in "nN":
                kept.append(ch)
            continue
        kept.append(ch)
    return unicodedata.normalize("NFC", "".join(kept))


@lru_cache(maxsize=16)
def _punct_tables(punctuation: frozenset[str]) -> tuple[bytes, dict[int, None]]:
    """The punctuation as the bytes to delete from Latin-1 text, its
    whitespace aside (no token holds any; "\\n" separates the tokens of a
    pass), and as a ``str.translate`` table for other text."""
    latin1 = "".join(c for c in punctuation if c <= "\xff" and not c.isspace())
    return latin1.encode("latin-1"), {ord(c): None for c in punctuation}


def _translated(text: str, table: bytes | None, delete: bytes, other) -> str:
    """The "\\n"-separated tokens of ``text``: each run of Latin-1 tokens
    through one ``bytes.translate(table, delete)``, each other token through
    ``other``."""
    try:
        return text.encode("latin-1").translate(table, delete).decode("latin-1")
    except UnicodeEncodeError:
        pass
    parts, done = [], 0
    for hit in _WIDE.finditer(text):
        if hit.start() < done:  # in the token just passed to other
            continue
        start = text.rfind("\n", 0, hit.start()) + 1
        end = text.find("\n", hit.end())
        end = len(text) if end < 0 else end
        parts += [_translated(text[done:start], table, delete, other),
                  other(text[start:end])]
        done = end
    parts.append(_translated(text[done:], table, delete, other))
    return "".join(parts)


def _lowered_words(
    words: str, keys: list[str], counts: np.ndarray, gamma: float
) -> frozenset[str]:
    """The lowercase keys of the words to lower everywhere: the
    capitalization of each raw token's word (a line of ``words``, lowered in
    ``keys``) tallied by key, weighed by the raw token's count."""
    upper = list(map(str.isupper, map(_FIRST, words.split("\n"))))
    # only the key of a capitalized word can be lowered
    number = dict.fromkeys(compress(keys, upper))
    number = dict(zip(number, range(len(number))))
    key_ids = np.fromiter(map(number.get, keys, repeat(len(number))), np.intp, len(keys))
    n_upper = np.bincount(key_ids, counts * np.array(upper), len(number) + 1)
    n_all = np.bincount(key_ids, counts, len(number) + 1)
    return frozenset(compress(number, n_upper < gamma * n_all))


def _tokens(
    raws: tuple[str, ...], config: PreprocessConfig,
    lowered_words: frozenset[str] | None = None, counts: np.ndarray | None = None,
) -> tuple[list[str], frozenset[str]]:
    """Stages 2-5 on whitespace tokens: the token each raw token gives ("" when
    it gives none), and ``lowered_words``, or, when that is None, the words
    that the case tally of ``raws`` weighed by ``counts`` lowers.

    Each stage runs once over the tokens joined by "\\n". No raw token holds
    whitespace, and "\\n" is neither cased nor case-ignorable, so it also
    ends each token's Final_Sigma context: lowering the joined text lowers
    each token as on its own. Latin-1 tokens lose their punctuation and
    accents through ``bytes.translate``; only others take ``str.translate``
    and :func:`_strip_accents`. Neither lowering nor accent stripping turns
    a character other than whitespace into text that holds whitespace, so a
    token never splits.
    """
    if not raws:  # "".split("\n") is [""]
        return [], lowered_words or frozenset()
    delete, punct = _punct_tables(config.punctuation)
    words = _translated("\n".join(raws), None, delete, lambda raw: raw.translate(punct))
    keys = words.lower().split("\n")
    if lowered_words is None:
        lowered_words = _lowered_words(words, keys, counts, config.gamma)
    # a lowered token is lowered whole, before its punctuation goes
    again = [i for i, key in enumerate(keys) if key and key in lowered_words]
    del keys
    tokens = _translated(words, _LATIN1_TABLE, b"", _strip_accents).split("\n")
    del words
    lowered = "\n".join(map(raws.__getitem__, again)).lower()
    lowered = _translated(lowered, _LATIN1_TABLE, delete,
                          lambda raw: _strip_accents(raw.translate(punct)))
    for i, token in zip(again, lowered.split("\n")):  # none when again is []
        tokens[i] = token
    stopwords = config.stopwords
    return ["" if t in stopwords else t for t in tokens], lowered_words


# Entries the shared table of one pipeline holds before it empties itself:
# about 200 bytes each, so at most about 6 MB a table, and the tables of the
# last four pipelines are kept. Zipfian lyrics repeat most raw tokens: 2,000
# reference-shape lyrics hold about 19k distinct ones.
_TABLE_CAP = 1 << 15


class _TokenTable(dict):
    """Raw token -> the token stages 2-5 of one pipeline make of it (or ""),
    mapped on first lookup; the table empties itself when it reaches _TABLE_CAP."""

    def __init__(self, config, lowered_words):
        super().__init__()
        self._pipeline = config, lowered_words

    def __missing__(self, raw):
        if len(self) >= _TABLE_CAP:
            self.clear()
        token = self[raw] = _tokens((raw,), *self._pipeline)[0][0]
        return token


@lru_cache(maxsize=4)
def _shared_table(config: PreprocessConfig, lowered_words: frozenset[str]):
    return _TokenTable(config, lowered_words)


def filter_tokens(
    text: str, config: PreprocessConfig, lowered_words: frozenset[str]
) -> list[str]:
    """Run stages 2-5 on one text, given the corpus-level lowered-word set.

    ``lowered_words`` holds the (pre-accent-strip) lowercase keys of the
    words the corpus-level case tally lowers. Each distinct raw token
    is filtered once per pipeline, in a table shared by equal pipelines.
    """
    table = _shared_table(config, lowered_words)
    return list(filter(None, map(table.__getitem__, text.split())))


def preprocess_with_decisions(
    corpus: Corpus, config: PreprocessConfig
) -> tuple[Corpus, FrozenPipeline]:
    """Run the full five-stage pipeline, also returning the pipeline frozen
    with its corpus-level lowered words, to filter later text the same way.

    The returned corpus has identical record ids/palos/metadata and filtered
    texts (tokens joined by single spaces), and carries its tokens' word ids
    for :func:`corpus_io.token_ids`. A text is joined from those ids when it
    is first read (:func:`corpus_io.texts_from_ids`); no command reads one.
    Records left without tokens are retained with empty text; their count is
    logged as a warning.

    The phrase-concatenated texts are tokenized once, into raw token ids.
    Stages 2-5 act on each whitespace token alone, so they run once over the
    distinct raw tokens, as whole-string passes over those tokens joined by
    "\\n" (Latin-1 ones through ``bytes.translate``, the others one at a
    time), and the case tally weighs each by its count. Each raw token gives
    at most one token, so the output's ids are the raw ids less those that
    give none, renumbered in order of first occurrence, and each record's
    kept tokens are counted one block of ids at a time.
    """
    texts = [apply_concat_map(rec.text, config) for rec in corpus.records]
    ids, raw_offsets, raws = word_ids(texts)
    del texts
    counts = np.zeros(len(raws), dtype=np.int64)
    np.add.at(counts, ids, 1)  # np.bincount would copy the ids to int64
    tokens, lowered = _tokens(raws, config, counts=counts)
    del raws
    # a token first occurs where the first raw token that gives it does
    first_seen = dict.fromkeys(tokens)
    first_seen.pop("", None)
    first_seen = dict(zip(first_seen, range(len(first_seen))))
    renumber = np.fromiter(map(first_seen.get, tokens, repeat(-1)), np.int32, len(tokens))
    ids, offsets = _renumbered(ids, renumber, raw_offsets)
    n_empty = np.count_nonzero(offsets[1:] == offsets[:-1])
    if n_empty:
        logger.warning(
            "preprocessing left %d record(s) with no tokens", n_empty
        )
    return (
        texts_from_ids(corpus.records, (ids, offsets, tuple(first_seen))),
        FrozenPipeline(config, lowered),
    )


# Raw ids renumbered at a time: the block's copies are all that is held
# beside the ids.
_BLOCK = 1 << 14


def _renumbered(
    ids: np.ndarray, renumber: np.ndarray, raw_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``renumber[ids]`` less its -1 entries, written over ``ids`` block by
    block (no entry is written before it is read), which then shrinks in
    place, so that no second array as long as ``ids`` is allocated; and the
    records' offsets (``raw_offsets`` into ``ids``) into the entries kept."""
    offsets = np.zeros_like(raw_offsets)
    n = 0
    for start in range(0, len(ids), _BLOCK):
        block = renumber[ids[start:start + _BLOCK]]
        kept = block >= 0
        # the records that end in this block: the entries kept before their end
        ends = slice(*np.searchsorted(raw_offsets, (start, start + len(block)), "right"))
        offsets[ends] = n + np.cumsum(kept)[raw_offsets[ends] - start - 1]
        block = block[kept]
        ids[n:n + len(block)] = block
        n += len(block)
    ids.resize(n, refcheck=False)
    return ids, offsets


def preprocess_corpus(corpus: Corpus, config: PreprocessConfig) -> Corpus:
    """Run the full five-stage pipeline over a corpus."""
    processed, _ = preprocess_with_decisions(corpus, config)
    return processed


@dataclass(frozen=True)
class FrozenPipeline:
    """A configuration and the corpus-level lowered words it produced: what
    a saved model needs to filter new text as its training corpus was."""

    config: PreprocessConfig
    lowered_words: frozenset[str]

    def apply(self, text: str) -> list[str]:
        """All five stages on one text: its tokens."""
        return filter_tokens(
            apply_concat_map(text, self.config), self.config, self.lowered_words
        )

    def to_dict(self) -> dict:
        """The JSON-ready state a model file stores."""
        config = self.config
        return {
            "gamma": config.gamma,
            "punctuation": "".join(sorted(config.punctuation)),
            "stopwords": sorted(config.stopwords),
            "concat_map": [[p, j] for p, j in config.concat_map],
            "lowered_words": sorted(self.lowered_words),
        }

    @classmethod
    def from_dict(cls, state, path) -> FrozenPipeline:
        """The pipeline of the state :func:`mnb.load_model` read from the
        model file at ``path``. Raises ModelFormatError when the file stores
        no state (None) or an invalid configuration."""
        if state is None:
            raise ModelFormatError(
                "model file lacks the stored preprocessing state; "
                "re-train with 'lexpalo train'"
            )
        try:
            config = PreprocessConfig(
                gamma=state["gamma"],
                concat_map=tuple((p, j) for p, j in state["concat_map"]),
                stopwords=frozenset(state["stopwords"]),
                punctuation=frozenset(state["punctuation"]),
            )
        except ValueError as exc:
            raise ModelFormatError(f"model file {path}: {exc}") from exc
        return cls(config, frozenset(state["lowered_words"]))
