"""Text analytics substrate: tokenization, TF-IDF, edit distance, languages."""

from .langs import (
    ACCOUNT_KEYWORDS,
    AGE_GATE_BUTTON_KEYWORDS,
    AGE_WARNING_PHRASES,
    COOKIE_BANNER_KEYWORDS,
    LANGUAGES,
    PREMIUM_KEYWORDS,
    PRIVACY_LINK_KEYWORDS,
    all_keywords,
    contains_keyword,
    matching_keywords,
)
from .levenshtein import domains_similar, levenshtein_distance, similarity
from .sparse import CsrMatrix, SimilarityEngine, engine_stats
from .tfidf import (
    TfIdfVectorizer,
    cosine_similarity,
    pairwise_similarities,
)
from .tokenize import term_counts, tokenize

__all__ = [
    "ACCOUNT_KEYWORDS",
    "AGE_GATE_BUTTON_KEYWORDS",
    "AGE_WARNING_PHRASES",
    "COOKIE_BANNER_KEYWORDS",
    "LANGUAGES",
    "PREMIUM_KEYWORDS",
    "PRIVACY_LINK_KEYWORDS",
    "all_keywords",
    "contains_keyword",
    "matching_keywords",
    "domains_similar",
    "levenshtein_distance",
    "similarity",
    "CsrMatrix",
    "SimilarityEngine",
    "engine_stats",
    "TfIdfVectorizer",
    "cosine_similarity",
    "pairwise_similarities",
    "term_counts",
    "tokenize",
]
