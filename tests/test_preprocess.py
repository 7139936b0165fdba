"""The five-stage text-filtering pipeline and its corpus-level case rule."""

import json
import logging
import multiprocessing
import pickle
import random
import re
import string
import sys
import unicodedata
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexpalo.corpus_io import Corpus, LyricRecord, filter_top_palos, token_ids
from lexpalo.errors import CorpusIoError, FormatError, ModelFormatError
from lexpalo import corpus_io, mnb, preprocess
from lexpalo.preprocess import (
    DEFAULT_PUNCTUATION,
    FrozenPipeline,
    PreprocessConfig,
    apply_concat_map,
    default_config,
    filter_tokens,
    load_concat_map,
    load_stopwords,
    preprocess_corpus,
    preprocess_with_decisions,
)
from lexpalo.vectorize import build_vocabulary, tfidf

import oracles
from helpers import (
    corpus, corpus_from_texts, generated_corpus, labeled_corpus, random_spanish_corpus,
    spy_on_joins,
)


BARE = PreprocessConfig()  # default gamma, no stopwords, no concat map


def lowered_words(corpus_, config=BARE, gamma=None):
    """The words the corpus-level case tally lowers, at ``gamma`` if given."""
    if gamma is not None:
        config = replace(config, gamma=gamma)
    return preprocess_with_decisions(corpus_, config)[1].lowered_words


def strip(text, config=BARE):
    """Stages 3-4 on one text, for a configuration without stop words."""
    return filter_tokens(text, config, frozenset())


# ---------------------------------------------------------------------------
# phrase concatenation


def test_concat_map_joins_known_phrases():
    config = PreprocessConfig(concat_map=(("Santa Ana", "SantaAna"),))
    assert apply_concat_map("Santa Ana reza", config) == "SantaAna reza"


def test_concat_map_handles_long_phrases():
    config = PreprocessConfig(
        concat_map=(("Jerez de la Frontera", "JerezdelaFrontera"),)
    )
    assert (
        apply_concat_map("vengo de Jerez de la Frontera madre", config)
        == "vengo de JerezdelaFrontera madre"
    )


def test_concat_map_empty_is_identity():
    text = "Santa Ana reza"
    assert apply_concat_map(text, BARE) == text


def test_concat_map_is_case_insensitive():
    config = PreprocessConfig(concat_map=(("Santa Ana", "SantaAna"),))
    assert apply_concat_map("en santa ana", config) == "en SantaAna"
    assert apply_concat_map("EN SANTA ANA", config) == "EN SantaAna"


def test_concat_map_respects_word_boundaries():
    config = PreprocessConfig(concat_map=(("Santa Ana", "SantaAna"),))
    assert apply_concat_map("Santa Anand", config) == "Santa Anand"
    assert apply_concat_map("La Santana", config) == "La Santana"


def test_concat_map_prefers_longest_phrase():
    config = PreprocessConfig(
        concat_map=(("Santa Ana", "SA"), ("Santa Ana María", "SAM"))
    )
    assert apply_concat_map("reza Santa Ana María", config) == "reza SAM"
    assert apply_concat_map("reza Santa Ana sola", config) == "reza SA sola"


def test_concat_map_replaces_every_occurrence():
    config = PreprocessConfig(concat_map=(("Muralla Real", "MurallaReal"),))
    out = apply_concat_map("Muralla Real y muralla real", config)
    assert out == "MurallaReal y MurallaReal"


def test_concat_map_phrases_equal_but_for_case_share_one_replacement():
    # the replacement listed last of them in the longest-first sort wins
    config = PreprocessConfig(concat_map=(
        ("Santa Ana", "SA1"), ("santa ana", "SA2"), ("SANTA ANA", "SA3"),
    ))
    for text in ("Santa Ana", "santa ana", "SANTA ANA", "sAnTa aNa"):
        assert apply_concat_map(text, config) == "SA2"


@pytest.mark.parametrize(
    "text, expected",
    [
        # long s: re.IGNORECASE matches it to s, and its casefold is s
        ("en ſanta ana", "en SantaAna"),
        ("ſANTA ANA", "SantaAna"),
        ("Σanta ana", "Σanta ana"),
        # dotted capital I and dotless i match i and I, but their
        # casefolds differ from i's
        ("Mİ VİDA santa ana", "MiVida SantaAna"),
        ("mı vıda", "MiVida"),
        ("MI VIDA", "MiVida"),
        ("ΣΟΦΊΑ ΜΟΥ σοφία μου σοφίας μου", "Sofia Sofia σοφίας μου"),
        ("ΣΟΦΊΑ ΜΟΥ", "Sofia"),
    ],
)
def test_concat_map_on_letters_whose_case_pairs_are_not_plain(text, expected):
    config = PreprocessConfig(concat_map=(
        ("Santa Ana", "SantaAna"), ("mi vida", "MiVida"), ("σοφία μου", "Sofia"),
    ))
    assert apply_concat_map(text, config) == expected


@pytest.mark.parametrize("phrase", ["İzmir limanı", "İzmir limani", "izmir lımani"])
def test_concat_map_phrase_with_dotted_letters_always_runs_the_regex(phrase):
    config = PreprocessConfig(concat_map=((phrase, "Izmir"),))
    *_, folds = preprocess._concat_pattern(config.concat_map)
    assert folds is None
    full_pattern = oracles.concat_full_pattern(config.concat_map)
    for text in ("izmir limani", "IZMIR LIMANI", "İZMİR LİMANI", "ızmır lımanı"):
        assert apply_concat_map(text, config) == full_pattern(text)
    assert apply_concat_map("izmir limani", config) == "Izmir"


def _cased_code_points():
    chars = (chr(code) for code in range(sys.maxunicode + 1))
    return [c for c in chars if c.lower() != c or c.upper() != c]


def test_ignorecase_matches_imply_equal_casefolds():
    """The premise of the concat map's skip: wherever re.IGNORECASE matches
    a phrase character to a text character, their casefolds are equal,
    except among I, i, dotted capital I and dotless i."""
    phrase_chars = set(string.ascii_letters)
    for phrase, _ in default_config().concat_map:
        phrase_chars.update(phrase)
    cased = _cased_code_points()
    dotted = set("Ii\u0130\u0131")
    checked = 0
    for p in sorted(phrase_chars):
        pattern = re.compile(re.escape(p), re.IGNORECASE)
        for c in cased:
            if pattern.fullmatch(c) and not {p, c} <= dotted:
                assert c.casefold() == p.casefold(), (p, c)
                checked += 1
    assert checked > len(phrase_chars)  # each letter matched its own cases


def test_concat_map_skip_agrees_with_the_regex_on_random_texts():
    config = PreprocessConfig(concat_map=default_config().concat_map + (
        ("mi vida", "MiVida"), ("σοφία μου", "Sofia"),
    ))
    full_pattern = oracles.concat_full_pattern(config.concat_map)
    # "ß", "ŉ" and "ﬁ" casefold to two characters, so that a text holding
    # one is scanned whole
    pieces = (
        "santa", "SANTA", "ſanta", "ana", "Ana", "ANA", "mi", "Mİ", "mı",
        "vida", "VİDA", "vıda", "σοφία", "ΣΟΦΊΑ", "μου", "ΜΟΥ", "san",
        "fernando", "de", "la", "Jerez", "frontera", "María", "MARÍA",
        "muralla", "real", "K", "\u212a", " ", "  ", "\n", ",", "x",
        "ß", "ŉ", "ﬁ", "santa ana", "muralla real", "mi vida",
    )
    rng = random.Random(8)
    for _ in range(3000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        assert apply_concat_map(text, config) == full_pattern(text), text
    for text in (
        "santa ana", "santa ana y más", "y más santa ana", "Santa Ana",  # at the ends
        "xsanta ana", "santa anax", "xsanta anax", "santa ana_", "3santa ana",  # glued
        "santa ana muralla real", "santa ana,muralla real", "mi vidasanta ana",
        "santa anamuralla real", "muralla real santa ana mi vida",  # adjacent
        "ß santa ana", "santa ana ß", "ŉsanta ana", "santa ana ﬁ", "ﬁ santa ana ﬁ",
        "STRAßE muralla real mi vida", "muralla realß", "ßmuralla real",
    ):
        assert apply_concat_map(text, config) == full_pattern(text), text


class _ScanSpy:
    """A compiled regex that records the texts its ``sub`` scans."""

    def __init__(self, pattern, scanned):
        self.pattern, self.scanned = pattern, scanned

    def sub(self, repl, text):
        self.scanned.append(text)
        return self.pattern.sub(repl, text)


def test_concat_map_scans_only_between_the_phrase_casefolds():
    # one character either side of the first and the last casefold hit,
    # unless the text's casefold is longer than the text
    config = PreprocessConfig(
        concat_map=(("Santa Ana", "SantaAna"), ("Muralla Real", "MurallaReal"))
    )
    pattern, replacements, folds = preprocess._concat_pattern(config.concat_map)
    scanned = []
    pad = "pena " * 200
    cases = {
        pad + "SANTA ANA " + pad: (" SANTA ANA ", pad + "SantaAna " + pad),
        "Santa Ana y muralla real": (
            "Santa Ana y muralla real", "SantaAna y MurallaReal"
        ),
        pad + "xsanta ana, muralla realx": (
            "xsanta ana, muralla realx", pad + "xsanta ana, muralla realx"
        ),
        "santa ana STRAßE" + pad: ("santa ana STRAßE" + pad, "SantaAna STRAßE" + pad),
    }
    spies = (_ScanSpy(pattern, scanned), replacements, folds)
    with mock.patch.object(preprocess, "_concat_pattern", return_value=spies):
        for text, (window, joined) in cases.items():
            del scanned[:]
            assert apply_concat_map(text, config) == joined
            assert scanned == [window]


def test_concat_map_compiles_one_regex(monkeypatch):
    compiled, real_compile = [], re.compile

    def compile_(*args):
        compiled.append(args[0])
        return real_compile(*args)

    concat_map = (
        ("Puerta de Tierra", "PuertaDeTierra"), ("Vega Alta", "VegaAlta"),
        ("Barrio de la Viña", "BarrioDeLaVina"),
    )
    monkeypatch.setattr(preprocess.re, "compile", compile_)
    built = preprocess._concat_pattern(concat_map)
    monkeypatch.undo()
    assert len(compiled) == 1
    pattern, replacements, folds = built
    assert compiled == [pattern.pattern]
    assert replacements == (None, "BarrioDeLaVina", "PuertaDeTierra", "VegaAlta")
    assert folds == ("barrio de la viña", "puerta de tierra", "vega alta")


# case twins, and a phrase that holds another
TWIN_MAP = (
    ("Santa Ana", "SA1"), ("santa ana", "SA2"), ("Santa Ana de la Frontera", "SAF"),
    ("San Fernando", "SanFernando"), ("Muralla Real", "MurallaReal"),
)
DOTTED_MAP = TWIN_MAP + (("İzmir limanı", "Izmir"),)


@pytest.mark.parametrize("concat_map", [TWIN_MAP, DOTTED_MAP], ids=["plain", "dotted"])
@pytest.mark.parametrize(
    "text",
    [
        "", "sin nombre aquí", "Santa Anas", "xsanta ana", "santa  ana",  # none
        "la Santa Ana", "SANTA ANA y santa ana", "en ſanta ana", "SAN FERNANDO",  # one
        "Santa Ana de la Frontera",  # two casefolds, one a part of the other
        "San Fernando y Santa Ana", "Muralla Real, san fernando, ſanta ana",
        "İzmir limanı y Santa Ana", "IZMIR LIMANI", "ızmır santa ana",
    ],
)
def test_concat_map_equals_the_full_pattern(text, concat_map):
    config = PreprocessConfig(concat_map=concat_map)
    expected = oracles.concat_full_pattern(concat_map)(text)
    assert apply_concat_map(text, config) == expected


@pytest.mark.parametrize("dotted", [False, True])
def test_concat_map_of_hundreds_of_phrases_equals_the_full_pattern(dotted):
    rng = random.Random(31)
    words = [
        "santa", "ana", "san", "fernando", "de", "la", "real", "mar", "sol",
        "río", "niña", "luna", "pena", "cádiz", "jerez", "ſol", "sevilla",
        "triana", "puerto", "cruz", "verde", "monte", "alto", "viejo",
        "mi", "vida", "casa", "calle", "plaza", "barrio", "noche", "\u212aing",
    ]
    phrases = {}
    while len(phrases) < 300:
        phrase = " ".join(rng.choice(words) for _ in range(rng.randint(2, 3)))
        phrase = "".join(c.upper() if rng.random() < 0.2 else c for c in phrase)
        phrases.setdefault(phrase, f"J{len(phrases)}")
    if dotted:
        phrases["İzmir limanı"] = "Izmir"
    concat_map = tuple(phrases.items())
    config = PreprocessConfig(concat_map=concat_map)
    full_pattern = oracles.concat_full_pattern(concat_map)
    folds = {phrase.casefold() for phrase in phrases}
    pieces = [*words, *phrases, "İ", "ı", " ", ", ", "\n"]
    held = Counter()
    for _ in range(1000):
        text = " ".join(
            rng.choice(pieces) if rng.random() < 0.3 else rng.choice(words)
            for _ in range(rng.randint(0, 8))
        )
        held[min(2, sum(fold in text.casefold() for fold in folds))] += 1
        assert apply_concat_map(text, config) == full_pattern(text), text
    assert min(held[0], held[1], held[2]) >= 100, held


# ---------------------------------------------------------------------------
# corpus-level case decisions: each count is pinned through the decision at
# a gamma on either side of the tally's ratio N / (n + N)


def test_case_rare_capitalization_is_lowered():
    c = corpus_from_texts(["Mar"] + ["mar"] * 8)  # 1 of 9
    assert lowered_words(c) == {"mar"}
    assert lowered_words(c, gamma=0.11) == frozenset()
    assert lowered_words(c, gamma=0.12) == {"mar"}


def test_case_uppercase_only_word_is_kept():
    c = corpus_from_texts(["Cádiz"] * 5)  # 5 of 5
    assert lowered_words(c) == frozenset()
    assert lowered_words(c, gamma=1.0) == frozenset()


def test_case_exact_boundary_is_kept():
    # N = gamma * (n + N) exactly: 1 = 0.2 * 5; the rule is strictly "<"
    c = corpus_from_texts(["Mar", "mar", "mar", "mar", "mar"])
    assert lowered_words(c, gamma=0.2) == frozenset()
    assert lowered_words(c, gamma=0.21) == {"mar"}


def test_case_counts_ignore_punctuation_wrappers():
    c = corpus_from_texts(["¡Ay! ay ay"])  # 1 of 3
    assert lowered_words(c, gamma=1 / 3) == frozenset()
    assert lowered_words(c, gamma=0.34) == {"ay"}


def test_case_keys_keep_accents_distinct():
    # "cadiz" is not a lowercase use of "Cádiz", so it is 1 of 1
    c = corpus_from_texts(["Cádiz", "cadiz cadiz cadiz"])
    assert lowered_words(c, gamma=1.0) == frozenset()


def test_case_lowercase_only_words_get_no_decision():
    c = corpus_from_texts(["solo minúsculas"])
    assert lowered_words(c, gamma=1.0) == frozenset()


def test_case_gamma_one_lowers_anything_seen_lowercase():
    c = corpus_from_texts(["Mar mar Unico"])
    assert lowered_words(c, gamma=1.0) == {"mar"}  # "Unico" never lowercase


def test_case_gamma_zero_lowers_nothing():
    c = corpus_from_texts(["Mar mar mar mar Mar"])
    assert lowered_words(c, gamma=0.0) == frozenset()


# ---------------------------------------------------------------------------
# accent / punctuation stripping


def test_strip_removes_accents_and_punctuation():
    assert strip("¡corazón!") == ["corazon"]


def test_strip_preserves_n_with_tilde():
    assert strip("niña") == ["niña"]
    assert strip("SEÑOR") == ["SEÑOR"]


def test_strip_maps_u_with_diaeresis_to_plain_u():
    assert strip("vergüenza") == ["verguenza"]


def test_strip_removes_every_configured_punctuation_char():
    text = "a,b;c.d:e¡f!g¿h?i@j#k\\l$m"
    assert strip(text) == ["abcdefghijklm"]
    assert set(",;.:¡!¿?@#\\$") == set(DEFAULT_PUNCTUATION)


def test_strip_is_identity_on_clean_text():
    text = "un cante sin adornos"
    assert strip(text) == text.split()


def test_strip_handles_decomposed_input():
    decomposed = unicodedata.normalize("NFD", "camarón")
    assert strip(decomposed) == ["camaron"]


def test_strip_respects_custom_punctuation_set():
    config = PreprocessConfig(punctuation=frozenset("-"))
    assert strip("re-mate, sí", config) == ["remate,", "si"]


LATIN1 = "".join(map(chr, range(256)))


def strip_latin1(text):
    """Accent stripping of Latin-1 text, through the byte table."""
    return preprocess._translated(text, preprocess._LATIN1_TABLE, b"", None)


def test_strip_accents_matches_decomposition_on_every_latin1_character():
    for ch in LATIN1:
        assert strip_latin1(ch) == oracles._strip_token(ch, ""), ch


def test_strip_accents_matches_decomposition_on_random_latin1_strings():
    rng = random.Random(256)
    for _ in range(2000):
        text = "".join(rng.choice(LATIN1) for _ in range(rng.randint(1, 12)))
        assert strip_latin1(text) == oracles._strip_token(text, "")


# ---------------------------------------------------------------------------
# tokenization and stop words


def test_tokenize_splits_on_runs_of_whitespace():
    assert strip("a  Cadiz no") == ["a", "Cadiz", "no"]


def test_tokenize_empty_text():
    assert strip("") == []
    assert strip("   \n\t ") == []


def test_tokenize_is_additive_over_lines():
    lines = ["ay pena", "mar y arena azul", "compás"]
    joined = "\n".join(lines)
    assert len(strip(joined)) == sum(len(strip(l)) for l in lines)


def test_stopword_removal_is_case_sensitive():
    config = PreprocessConfig(stopwords=frozenset({"que"}))
    assert filter_tokens("que Que mar", config, frozenset()) == ["Que", "mar"]


def test_stopword_removal_can_empty_a_document():
    config = PreprocessConfig(stopwords=frozenset({"de", "la"}))
    assert filter_tokens("de la de", config, frozenset()) == []


def test_stopword_removal_with_empty_set_is_identity():
    tokens = ["el", "mar", "de", "Cadiz"]
    assert strip(" ".join(tokens)) == tokens


# ---------------------------------------------------------------------------
# configuration objects and resource files


@pytest.mark.parametrize("gamma", [-0.1, 1.01])
def test_config_rejects_gamma_outside_unit_interval(gamma):
    with pytest.raises(ValueError, match="gamma"):
        PreprocessConfig(gamma=gamma)


def test_config_rejects_single_word_concat_phrase():
    with pytest.raises(ValueError, match="multiword"):
        PreprocessConfig(concat_map=(("Cadiz", "Cadiz"),))


def test_config_rejects_multitoken_concat_replacement():
    with pytest.raises(ValueError, match="single token"):
        PreprocessConfig(concat_map=(("Santa Ana", "Santa Ana"),))


def test_config_rejects_stopword_with_whitespace():
    with pytest.raises(ValueError, match="whitespace"):
        PreprocessConfig(stopwords=frozenset({"de la"}))


def test_load_stopwords_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# header\nque\n\nel\n  de \n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"que", "el", "de"})


def test_load_stopwords_rejects_multiword_entries(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("de la\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_stopwords(path)


@pytest.mark.parametrize("word", ["a b", "a\u00a0b"], ids=["space", "nbsp"])
def test_both_stopword_reporters_apply_one_rule(tmp_path, word):
    path = tmp_path / "stop.txt"
    path.write_text(f"# words\n{word}\n", encoding="utf-8")
    with pytest.raises(FormatError) as info:
        load_stopwords(path)
    assert str(info.value) == f"line 2: stop-word entry {word!r} contains whitespace"
    assert info.value.line == 2 and info.value.exit_code == 4
    with pytest.raises(ValueError) as info:
        PreprocessConfig(stopwords=frozenset({word}))
    assert str(info.value) == f"stop word {word!r} contains whitespace"


def test_load_stopwords_missing_file(tmp_path):
    with pytest.raises(CorpusIoError):
        load_stopwords(tmp_path / "nope.txt")


def test_load_concat_map_parses_tab_pairs(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text(
        "# proper names\nSanta Ana\tSantaAna\nMuralla Real\tMurallaReal\n",
        encoding="utf-8",
    )
    assert load_concat_map(path) == (
        ("Santa Ana", "SantaAna"), ("Muralla Real", "MurallaReal"),
    )


@pytest.mark.parametrize(
    "entry, message",
    [
        ("Santa Ana SantaAna", "line must be 'phrase<TAB>replacement'"),
        ("Santa\tSantaAna", "phrase 'Santa' is not multiword"),
        ("Santa Ana\tSanta Ana", "replacement 'Santa Ana' must be a single token"),
    ],
    ids=["untabbed", "one-word-phrase", "multi-token-replacement"],
)
def test_load_concat_map_rejects_untabbed_lines(tmp_path, entry, message):
    path = tmp_path / "map.tsv"
    path.write_text(f"# names\n{entry}\n", encoding="utf-8")
    with pytest.raises(FormatError, match=f"line 2: concat-map {re.escape(message)}"):
        load_concat_map(path)


def test_default_config_ships_spanish_resources():
    config = default_config()
    assert {"que", "el", "de", "la", "ay"} <= config.stopwords
    assert all(w == w.lower() for w in config.stopwords)
    assert ("Santa Ana", "SantaAna") in config.concat_map
    assert ("Jerez de la Frontera", "JerezdelaFrontera") in config.concat_map
    assert config.gamma == 0.2


# ---------------------------------------------------------------------------
# full pipeline


def test_pipeline_hand_example_with_default_stopwords():
    c = corpus(
        ("1", "¡Ay, que viva Cádiz!", "A"),
        ("2", "ay ay ay ay ay el mar", "A"),
        ("3", "el mar de Cádiz brilla", "B"),
    )
    out = preprocess_corpus(c, default_config())
    # "Ay" opens one verse but "ay" dominates (N=1 < 0.2*6), so it lowers
    # and then falls to the stop-word list; "Cádiz" stays capitalized and
    # only loses its accent.
    assert [r.text for r in out.records] == [
        "viva Cadiz", "mar", "mar Cadiz brilla",
    ]
    assert [r.id for r in out.records] == ["1", "2", "3"]
    assert [r.palo for r in out.records] == ["A", "A", "B"]


def test_pipeline_gamma_one_limit_only_strips_and_lowers():
    config = PreprocessConfig(gamma=1.0)
    c = corpus(("1", "Mar mar ¡Único!", "A"))
    out = preprocess_corpus(c, config)
    # "mar" seen lowercase -> fully lowered; "Único" never lowercase -> kept
    assert out.records[0].text == "mar mar Unico"


def test_pipeline_retains_emptied_records_and_warns(caplog):
    config = PreprocessConfig(stopwords=frozenset({"de", "la"}))
    c = corpus(("1", "de la de", "A"), ("2", "mar adentro", "A"))
    with caplog.at_level(logging.WARNING, logger="lexpalo.preprocess"):
        out = preprocess_corpus(c, config)
    assert [r.text for r in out.records] == ["", "mar adentro"]
    assert len(out) == 2
    assert any("1 record(s)" in m for m in caplog.messages)


def test_pipeline_concatenates_before_counting_case():
    # After joining, "SantaAna" is uppercase-only and therefore kept.
    config = PreprocessConfig(concat_map=(("Santa Ana", "SantaAna"),))
    c = corpus(("1", "Santa Ana reza; santa ana canta", "A"))
    out = preprocess_corpus(c, config)
    assert out.records[0].text == "SantaAna reza SantaAna canta"


def test_pipeline_case_decision_applies_before_stopword_match():
    # "Que" would survive a case-sensitive stop-word match, but the case
    # rule lowers it first, so it is removed like its lowercase twin.
    config = PreprocessConfig(stopwords=frozenset({"que"}))
    c = corpus(("1", "Que pena que tengo que cantar que sí que no que ya", "A"))
    out = preprocess_corpus(c, config)  # N=1 < 0.2 * 6 -> "Que" lowers
    assert out.records[0].text == "pena tengo cantar si no ya"


def test_pipeline_kept_capitalized_word_survives_lowercase_stopword():
    # Uppercase-dominant words stay capitalized and dodge the stop list.
    config = PreprocessConfig(stopwords=frozenset({"que"}))
    c = corpus(("1", "Que Que Que Que que", "A"))
    out = preprocess_corpus(c, config)
    assert out.records[0].text == "Que Que Que Que"


def test_filter_tokens_matches_pipeline_output():
    config = default_config()
    c = random_spanish_corpus(random.Random(3), n_records=(4, 6))
    processed, pipeline = preprocess_with_decisions(c, config)
    lowered = pipeline.lowered_words
    assert pipeline.config is config
    state = json.loads(json.dumps(pipeline.to_dict()))
    assert FrozenPipeline.from_dict(state, "model.json") == pipeline
    for raw, out in zip(c.records, processed.records):
        mapped = apply_concat_map(raw.text, config)
        assert filter_tokens(mapped, config, lowered) == out.text.split()
        assert pipeline.apply(raw.text) == out.text.split()


def frozen_state(**changes):
    config = PreprocessConfig(
        stopwords=frozenset({"la", "de"}),
        concat_map=(("Santa Ana", "SantaAna"),),
    )
    state = FrozenPipeline(config, frozenset({"niña", "cádiz"})).to_dict()
    state.update(changes)
    return state


def test_frozen_pipeline_to_dict_keeps_the_model_file_layout():
    state = frozen_state()
    assert list(state) == [
        "gamma", "punctuation", "stopwords", "concat_map", "lowered_words"
    ]
    assert state["punctuation"] == "".join(sorted(DEFAULT_PUNCTUATION))
    assert state["stopwords"] == ["de", "la"]
    assert state["concat_map"] == [["Santa Ana", "SantaAna"]]
    assert state["lowered_words"] == ["cádiz", "niña"]


def model_file_with_state(tmp_path, state):
    """A model file that stores ``state`` as its preprocessing state."""
    c = labeled_corpus({"X": ["mar"], "Y": ["sol"]})
    model = mnb.fit(tfidf(c, build_vocabulary(c)), ["X", "Y"], 0.5)
    path = tmp_path / "m.json"
    mnb.save_model(model, path, state)
    return path


def test_frozen_pipeline_from_dict_rejects_an_absent_or_non_dict_state(tmp_path):
    with pytest.raises(ModelFormatError, match="preprocessing state"):
        FrozenPipeline.from_dict(None, "m.json")
    every_key = ", ".join(f"preprocess.{key}" for key in frozen_state())
    for state in ([], "state", 3):
        path = model_file_with_state(tmp_path, state)
        with pytest.raises(ModelFormatError) as info:
            mnb.load_model(path)
        assert str(info.value) == (
            f"model file {path} has a missing or malformed {every_key}"
        )


def test_frozen_pipeline_from_dict_names_every_bad_key(tmp_path):
    state = frozen_state(gamma="0.2", lowered_words=[["mar"]])
    del state["stopwords"]
    with pytest.raises(ModelFormatError) as info:
        mnb.load_model(model_file_with_state(tmp_path, state))
    assert str(info.value).endswith(
        "preprocess.gamma, preprocess.stopwords, preprocess.lowered_words"
    )


def test_frozen_pipeline_from_dict_reports_invalid_config_as_model_format():
    for bad in (frozen_state(gamma=5), frozen_state(stopwords=["de la"])):
        with pytest.raises(ModelFormatError, match="model file m.json: "):
            FrozenPipeline.from_dict(bad, "m.json")


def per_token_rule(text, config, lowered):
    """Stages 2-5 token by token by the oracle's rule, without the shared
    table."""
    return [
        piece for raw in text.split() for piece in oracles.filter_token(
            raw, lowered, config.stopwords, config.punctuation)
    ]


TABLE_TEXTS = (
    "Que viva Cádiz, ¡olé! la Niña de los Peines",
    "que VIVA cádiz; la niña, de Jerez. QUE",
    "Pena, pena, PENA ¿por qué? corazón y vergüenza",
)


@pytest.mark.parametrize(
    "other",
    [
        {"lowered": frozenset({"niña", "jerez"})},
        {"stopwords": frozenset({"la", "Que", "pena"})},
        {"punctuation": frozenset(",;")},
    ],
    ids=["lowered-words", "stopwords", "punctuation"],
)
def test_filter_tokens_keeps_pipelines_apart(other):
    base = PreprocessConfig(stopwords=frozenset({"de", "la", "y"}))
    lowered = frozenset({"que", "pena"})
    pipelines = [
        (base, lowered),
        (
            replace(base, **{k: v for k, v in other.items() if k != "lowered"}),
            other.get("lowered", lowered),
        ),
    ]
    outputs = {0: set(), 1: set()}
    for _ in range(2):  # the second round reads filled tables
        for text in TABLE_TEXTS:
            for which, (config, words) in enumerate(pipelines):
                got = filter_tokens(text, config, words)
                assert got == per_token_rule(text, config, words)
                outputs[which].add(tuple(got))
    assert outputs[0] != outputs[1]


def test_equal_pipelines_share_one_token_table():
    config = default_config()
    twin = PreprocessConfig(
        gamma=config.gamma,
        concat_map=tuple(tuple(pair) for pair in list(config.concat_map)),
        stopwords=frozenset(list(config.stopwords)),
        punctuation=frozenset(list(config.punctuation)),
    )
    lowered = frozenset({"que"})
    lowered_twin = frozenset(list(lowered))
    assert twin == config and twin is not config
    preprocess._shared_table.cache_clear()
    table = preprocess._shared_table(config, lowered)
    assert preprocess._shared_table(twin, lowered_twin) is table
    filter_tokens(TABLE_TEXTS[0], config, lowered)
    filled = len(table)
    assert filled == len(set(TABLE_TEXTS[0].split()))
    assert filter_tokens(TABLE_TEXTS[0], twin, lowered_twin) == per_token_rule(
        TABLE_TEXTS[0], config, lowered
    )
    assert len(table) == filled


def test_token_table_stays_within_its_cap():
    config = PreprocessConfig(stopwords=frozenset({"w7", "W8"}))
    lowered = frozenset({"w9"})
    preprocess._shared_table.cache_clear()
    table = preprocess._shared_table(config, lowered)
    cap = preprocess._TABLE_CAP
    words = [f"W{i}," if i % 3 else f"w{i}" for i in range(cap + 100)]
    # texts of 1,000 distinct tokens up to the cap, then one token a text
    texts = [" ".join(words[i:min(i + 1000, cap)]) for i in range(0, cap, 1000)]
    texts += words[cap:]
    for text in texts:
        assert filter_tokens(text, config, lowered) == per_token_rule(
            text, config, lowered
        )
        assert len(table) <= cap
    assert len(table) == 100


# ---------------------------------------------------------------------------
# pipeline properties


def _combining_marks(token):
    return [
        ch for ch in unicodedata.normalize("NFD", token)
        if unicodedata.combining(ch)
    ]


def test_pipeline_never_increases_token_count_and_emits_clean_tokens():
    config = default_config()
    rng = random.Random(12345)
    for _ in range(100):
        c = random_spanish_corpus(rng)
        out = preprocess_corpus(c, config)
        for raw, rec in zip(c.records, out.records):
            tokens = rec.text.split()
            assert len(tokens) <= len(raw.text.split())
            for tok in tokens:
                assert not set(tok) & set(config.punctuation)
                marks = _combining_marks(tok)
                assert all(m == "̃" for m in marks)  # only n-with-tilde


def test_pipeline_lowered_words_never_resurface_capitalized():
    config = default_config()
    rng = random.Random(777)
    for _ in range(100):
        c = random_spanish_corpus(rng)
        out, pipeline = preprocess_with_decisions(c, config)
        lowered_stripped = {
            oracles._strip_token(word, config.punctuation)
            for word in pipeline.lowered_words
        }
        for rec in out.records:
            for tok in rec.text.split():
                if tok[:1].isupper():
                    assert tok.lower() not in lowered_stripped


def test_pipeline_is_deterministic():
    config = default_config()
    c = random_spanish_corpus(random.Random(5))
    assert preprocess_corpus(c, config) == preprocess_corpus(c, config)


def test_pipeline_is_idempotent_on_accent_consistent_corpora():
    config = default_config()
    rng = random.Random(2024)
    for _ in range(200):
        c = random_spanish_corpus(rng)
        once = preprocess_corpus(c, config)
        twice = preprocess_corpus(once, config)
        assert twice == once


def test_pipeline_accent_collision_documents_idempotence_boundary():
    # Mixing accent variants of one word defeats idempotence by design:
    # after stripping, "Cadiz" (from accented "Cádiz", kept as a proper
    # noun) and the nine bare "cadiz" merge into one case key, and the
    # second pass lowers what the first pass kept. The synthetic corpora
    # above avoid exactly this, and real Spanish spelling does too.
    c = corpus(("1", "Cádiz", "A"), ("2", " ".join(["cadiz"] * 9), "A"))
    once = preprocess_corpus(c, BARE)
    assert [r.text for r in once.records][0] == "Cadiz"
    twice = preprocess_corpus(once, BARE)
    assert twice != once
    assert [r.text for r in twice.records][0] == "cadiz"


# ---------------------------------------------------------------------------
# the whole pipeline against the per-occurrence oracle

DEFAULTS = default_config()
# accented words beside their decomposed spellings, n-tilde and u-diaeresis
# in both cases, tildes on other letters, letters whose case pairs are not
# plain (long s, dotted capital I, dotless i, sigma; the phrases meeting
# them are pinned above), stop words, and the packaged multiword names
WORDS = (
    "corazón", "corazo\u0301n", "niña", "nin\u0303a", "Ñandú", "ÑU", "ñu",
    "São", "nu\u0303", "n\u0301\u0303o", "ſol", "İzmir", "ılık", "ΣΟΦΊΑ",
    "vergüenza", "vergu\u0308enza", "pingüino", "cádiz", "ca\u0301diz",
    "alegría", "mar", "sol", "pena", "sevilla", "él", "que", "de", "la",
    "el", "ay", "y", "a", "Santa", "ana", "real",
) + tuple(phrase for phrase, _ in DEFAULTS.concat_map)
SPACES = (" ", "  ", "\t", "\n", " \n ", "\n\n", "\u00a0")
MARKS = ("",) + tuple(sorted(DEFAULT_PUNCTUATION))


@st.composite
def lyrics(draw):
    """Lines of words wrapped in punctuation, capitalized at line starts
    and at random, separated by runs of whitespace."""
    parts = [draw(st.sampled_from(("", " ", "\n")))]
    line_start = True
    for word, case, before, after, space in draw(st.lists(st.tuples(
        st.sampled_from(WORDS),
        st.sampled_from(("as is", "capital", "upper")),
        st.sampled_from(MARKS),
        st.sampled_from(MARKS),
        st.sampled_from(SPACES),
    ), max_size=30)):
        if case == "upper":
            word = word.upper()
        elif line_start or case == "capital":
            word = word[:1].upper() + word[1:]
        parts.append(before + word + after + space)
        line_start = "\n" in space
    return "".join(parts)


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(lyrics(), min_size=1, max_size=6),
    gamma=st.sampled_from((0.0, 0.2, 1.0)),
)
def test_pipeline_matches_per_occurrence_oracle(texts, gamma):
    config = PreprocessConfig(
        gamma=gamma, concat_map=DEFAULTS.concat_map, stopwords=DEFAULTS.stopwords
    )
    c = corpus_from_texts(texts)
    processed, pipeline = preprocess_with_decisions(c, config)
    expected_texts, expected_lowered = oracles.preprocess(
        texts, gamma, config.concat_map, config.stopwords, config.punctuation
    )
    assert [r.text for r in processed.records] == expected_texts
    assert pipeline.lowered_words == expected_lowered
    assert_carried_ids_equal_a_fresh_tokenization(processed)
    lowered = pipeline.lowered_words
    mapped = [apply_concat_map(text, config) for text in texts]
    preprocess._shared_table.cache_clear()
    for _ in ("cold table", "warm table"):
        assert [filter_tokens(text, config, lowered) for text in mapped] == [
            text.split() for text in expected_texts
        ]
    for text in mapped:
        per_token = [
            t for raw in text.split() for t in filter_tokens(raw, config, lowered)
        ]
        assert filter_tokens(text, config, lowered) == per_token


# Pieces of tokens that a pass over all the distinct raw tokens at once could
# filter otherwise than one token at a time: sigma beside punctuation inside
# a token (a raw token is lowered with its punctuation, and "Α,Σ" lowers to
# "α,σ" where "ΑΣ" lowers to "ας"), letters whose case maps change length or
# leave Latin-1 (İ, ß, ſ, ÿ, the Kelvin sign), combining tildes, curly
# quotes, and Latin-1 letters, marks and stop words
EDGE_PIECES = (
    "Α,Σ", "ΑΣ,", "ΑΣ", "Σ", "ας", "α", "σ", "ς", ",", ".", "İ", "ı", "ß", "ẞ", "ſ", "ÿ", "Ÿ",
    "\u212a", "n\u0303", "N\u0303", "a\u0303", "“", "”", "’", "Cádiz", "cádiz",
    "Ñu", "ñu", "¡", "!", "A", "a", "µ", "de", "pena", "Pena",
)
# punctuation sets holding whitespace, a cased letter or characters outside
# Latin-1
EDGE_PUNCTUATION = (
    DEFAULT_PUNCTUATION, frozenset(",\n \u00a0!"), frozenset(",Aa"),
    frozenset("Σ,’"), frozenset("“”İ."), frozenset("σ\u0303Ÿ"),
)


@settings(max_examples=300, deadline=None)
@given(
    texts=st.lists(
        st.lists(
            st.lists(st.sampled_from(EDGE_PIECES), min_size=1, max_size=3).map("".join),
            max_size=8,
        ).map(" ".join),
        min_size=1, max_size=5,
    ),
    punctuation=st.sampled_from(EDGE_PUNCTUATION),
    gamma=st.sampled_from((0.0, 0.5, 1.0)),
)
def test_pipeline_matches_the_oracle_on_edge_tokens(texts, punctuation, gamma):
    config = PreprocessConfig(
        gamma=gamma, punctuation=punctuation, stopwords=frozenset({"de", "ς", "ss"})
    )
    processed, pipeline = preprocess_with_decisions(corpus_from_texts(texts), config)
    expected_texts, expected_lowered = oracles.preprocess(
        texts, gamma, (), config.stopwords, punctuation
    )
    assert [r.text for r in processed.records] == expected_texts
    assert pipeline.lowered_words == expected_lowered
    assert_carried_ids_equal_a_fresh_tokenization(processed)
    preprocess._shared_table.cache_clear()
    for text, expected in zip(texts, expected_texts):
        assert filter_tokens(text, config, pipeline.lowered_words) == expected.split()


@pytest.mark.parametrize("texts", [["", " ", "\n\u00a0"], ["", "¡!", ", . ;"]],
                         ids=["no tokens", "punctuation only"])
def test_pipeline_on_a_corpus_that_gives_no_token(texts):
    processed, pipeline = preprocess_with_decisions(corpus_from_texts(texts), BARE)
    assert [r.text for r in processed.records] == ["", "", ""]
    assert pipeline.lowered_words == frozenset()
    assert_carried_ids_equal_a_fresh_tokenization(processed)
    assert token_ids(processed).words == ()


def test_only_tokens_outside_latin1_are_decomposed():
    # a whole pass through unicodedata's NFD took twice as long as the
    # per-token calls, on the benchmark's wide corpus
    texts = ["la pena “Soleá” de Cádiz", "“soleá”, niña; corazón y vergüenza",
             "¡Soleá! pena, PENA"] * 20
    with mock.patch.object(
        preprocess.unicodedata, "normalize", wraps=unicodedata.normalize
    ) as spy:
        processed, _ = preprocess_with_decisions(corpus_from_texts(texts), BARE)
    assert processed.records[0].text == "la pena “Solea” de Cadiz"
    decomposed = [call.args[1] for call in spy.call_args_list if call.args[0] == "NFD"]
    assert sorted(decomposed) == ["“Soleá”", "“soleá”"]
    assert max(len(call.args[1]) for call in spy.call_args_list) == len("“Soleá”")


# ---------------------------------------------------------------------------
# the word ids a preprocessed corpus carries


def assert_tokenized_once(c, tokenizations):
    """``token_ids(c)``, called twice, tokenizes ``c``'s texts ``tokenizations``
    times (0 or 1) and returns the same read-only arrays each time, equal to
    those :func:`word_ids` gives for its texts."""
    with mock.patch.object(corpus_io, "word_ids", wraps=corpus_io.word_ids) as spy:
        first = token_ids(c)
        assert spy.call_count == tokenizations
        second = token_ids(c)
        assert spy.call_count == tokenizations
    assert first.corpus is second.corpus is c
    assert second.ids is first.ids and second.offsets is first.offsets
    assert second.words == first.words
    ids, offsets, words = corpus_io.word_ids([r.text for r in c.records])
    for got, expected in ((first.ids, ids), (first.offsets, offsets)):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert not got.flags.writeable
    assert first.words == words


def assert_carried_ids_equal_a_fresh_tokenization(processed):
    assert_tokenized_once(processed, 0)
    assert_tokenized_once(Corpus(processed.records), 1)


CARRIED_IDS_CASES = {
    # each case lowers a word and empties a song
    "default config, emptied songs, lowered words and stop words": (
        default_config(),
        [
            "Que pena, que pena de la noche que",
            "¡Ay! de la",
            "que viva Cádiz, viva la Niña; pena, pena",
            "Niña de los Peines, la Pena que pena",
            "de ¡la! y que",
            "Vergüenza y Noche, ¿noche? ay",
        ],
    ),
    "concat-map phrases equal but for case": (
        PreprocessConfig(
            gamma=0.5,
            concat_map=(("Santa Ana", "SantaAna"), ("santa ana", "santaana"),
                        ("SANTA ANA", "SANTAANA"), ("Muralla Real", "MurallaReal")),
        ),
        [
            "Santa Ana y santa ana, SANTA ANA",
            "la Muralla Real de santa Ana",
            "murallas reales, santa Muralla",
            "sAnTa AnA muralla muralla",
            "¡!",
        ],
    ),
    "tokens outside Latin-1": (
        replace(default_config(), gamma=0.5, stopwords=frozenset({"ſi", "ανα"})),
        [
            "ſeñor ſí, Ἀθῆναι ἀνά ſi",
            "man\u0303ana An\u0303o ma\u0303s ñu",
            "Ωμέγα ωμέγα, ωμεγα Ἀθῆναι ωμέγα",
            "ſí ἀνά",
        ],
    ),
    "newline and no-break space as punctuation": (
        PreprocessConfig(
            gamma=0.5,
            punctuation=frozenset({",", "\n", "\u00a0"}),
            stopwords=frozenset({"la"}),
        ),
        [
            "la\u00a0pena\nnoche, la\u00a0NOCHE",
            "pena,\u00a0,\n,",
            ",\u00a0\n",
            "noche\u00a0noche\nla",
        ],
    ),
}


@pytest.mark.parametrize("case", CARRIED_IDS_CASES)
def test_preprocessed_corpus_carries_the_ids_of_its_texts(case):
    config, texts = CARRIED_IDS_CASES[case]
    c = labeled_corpus({"A": texts, "B": texts[::-1]})
    processed, pipeline = preprocess_with_decisions(c, config)
    assert any(not r.text for r in processed.records) and pipeline.lowered_words
    assert_carried_ids_equal_a_fresh_tokenization(processed)
    assert_tokenized_once(c, 1)
    assert_tokenized_once(filter_top_palos(processed, 1), 1)


@pytest.mark.parametrize("block", [1, 2, 3, 7, preprocess._BLOCK])
def test_record_offsets_are_counted_across_id_blocks(monkeypatch, block):
    # records and emptied records start and end inside blocks and on their
    # edges
    monkeypatch.setattr(preprocess, "_BLOCK", block)
    for config, texts in CARRIED_IDS_CASES.values():
        c = labeled_corpus({"A": texts, "B": texts[::-1]})
        processed, pipeline = preprocess_with_decisions(c, config)
        assert [r.text for r in processed.records] == [
            " ".join(pipeline.apply(r.text)) for r in c.records
        ]
        assert_carried_ids_equal_a_fresh_tokenization(processed)


# ---------------------------------------------------------------------------
# processed texts, joined when first read


@pytest.fixture
def joins(monkeypatch):
    return spy_on_joins(monkeypatch)


def unread(seed=4):
    """A preprocessed corpus none of whose texts has been read (two of its
    songs are emptied), and each song's text joined from the tokens its
    frozen pipeline gives."""
    raw = generated_corpus(seed)
    processed, pipeline = preprocess_with_decisions(raw, default_config())
    eager = [" ".join(pipeline.apply(r.text)) for r in raw.records]
    assert eager.count("") == 2
    return processed, eager


def texts_of(c):
    return [r.text for r in c.records]


def test_processed_texts_are_joined_once_when_first_read(joins):
    processed, eager = unread()
    assert joins == []
    first = texts_of(processed)
    assert first == eager
    assert joins == list(range(len(eager)))
    assert all(a is b for a, b in zip(texts_of(processed), first))
    assert joins == list(range(len(eager)))


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_processed_corpus_pickled_before_any_read_keeps_its_texts(joins, protocol):
    processed, eager = unread()
    copy = pickle.loads(pickle.dumps(processed, protocol))
    assert joins == []
    assert texts_of(copy) == eager
    assert joins == list(range(len(eager)))
    assert texts_of(processed) == eager
    assert token_ids(copy).words == token_ids(processed).words


def test_a_spawned_process_joins_the_texts_of_a_processed_corpus(joins):
    # the start method _map_runs keeps where the platform has no affinity
    # API: the encoding it sends holds the corpus
    processed, eager = unread()
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=context) as pool:
        assert pool.submit(texts_of, processed).result() == eager
    assert joins == []
    assert texts_of(processed) == eager


def test_unread_and_eager_records_compare_and_print_alike(joins):
    (a, eager), (b, _), (c, _), (d, _) = (unread() for _ in range(4))
    for lazy, other, shown, replaced, text in zip(
        a.records, b.records, c.records, d.records, eager
    ):
        record = LyricRecord(lazy.id, text, lazy.palo, lazy.metadata)
        assert lazy == record
        assert record == other
        assert repr(shown) == repr(record)
        assert replace(replaced, palo="Z") == replace(record, palo="Z")
        assert replace(replaced, text="otra") == replace(record, text="otra")
        assert lazy != replace(record, text=text + " otra")
    assert len(joins) == 4 * len(eager)


@pytest.mark.parametrize("text", [None, 7, ["pena"], b"pena", object()],
                         ids=["None", "int", "list", "bytes", "object"])
def test_a_text_of_another_type_is_returned_as_given(text):
    rec = LyricRecord("1", text, "A")
    assert rec.text is text
    assert replace(rec, palo="B").text is text


def test_lowering_and_accent_stripping_never_make_whitespace():
    # So a whitespace token gives at most one token, and preprocessing can
    # number the processed tokens by their raw ones.
    for code in chain(range(0xD800), range(0xE000, 0x110000)):
        ch = chr(code)
        if ch.isspace():
            continue
        lowered = ch.lower()
        out = (lowered + preprocess._strip_accents(ch)
               + preprocess._strip_accents(lowered))
        if code < 0x100:
            out += strip_latin1(ch) + strip_latin1(lowered)
        assert out.split() == [out], hex(code)
