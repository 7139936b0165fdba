"""lexpalo: lexical statistics and genre classification for lyric corpora.

The package turns any labeled corpus of song lyrics (JSONL/CSV) into
lexical-richness reports, a TF-IDF multinomial naive-Bayes genre classifier
with repeated-training evaluation, per-genre essential-word lists, and an
inter-genre distance geometry (dendrogram, minimum spanning tree,
closeness centrality). See the ``lexpalo`` CLI for the end-to-end pipeline.
"""

__version__ = "0.1.0"

from .corpus_io import (  # noqa: F401
    Corpus,
    LyricRecord,
    SplitSpec,
    filter_top_palos,
    load_corpus,
)
from .errors import LexpaloError  # noqa: F401
from .preprocess import (  # noqa: F401
    PreprocessConfig,
    default_config,
    preprocess_corpus,
)
from .vectorize import TfIdfMatrix, Vocabulary, build_vocabulary, tfidf  # noqa: F401
