"""Similarity oracles: dense-matrix and dict-cosine forms of the sparse
engine's three consumers (§4.1 owner discovery, §7.3 pair fractions and
the §7.3 pair stream)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.text.tfidf import TfIdfVectorizer, cosine_similarity
from repro.text.tokenize import term_counts


def pairwise_similarity_fractions_dense(
    texts: Sequence[str], *, threshold: float = 0.5
) -> Tuple[float, int]:
    """:func:`~repro.core.compliance.policies.pairwise_similarity_fractions`
    as one full Gram product plus an ``np.triu_indices`` extraction."""
    n = len(texts)
    if n < 2:
        return (0.0, 0)
    counts = [term_counts(text) for text in texts]
    vocabulary: Dict[str, int] = {}
    document_frequency: Dict[str, int] = {}
    for count in counts:
        for term in count:
            if term not in vocabulary:
                vocabulary[term] = len(vocabulary)
            document_frequency[term] = document_frequency.get(term, 0) + 1
    idf = np.zeros(len(vocabulary))
    for term, index in vocabulary.items():
        idf[index] = np.log((1 + n) / (1 + document_frequency[term])) + 1.0
    matrix = np.zeros((n, len(vocabulary)))
    for row, count in enumerate(counts):
        for term, frequency in count.items():
            matrix[row, vocabulary[term]] = (1.0 + np.log(frequency)) * \
                idf[vocabulary[term]]
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    matrix /= norms
    gram = matrix @ matrix.T
    upper = gram[np.triu_indices(n, k=1)]
    total_pairs = upper.size
    return (float((upper > threshold).sum()) / total_pairs, total_pairs)


def _policy_similarity_pairs_dense(
    sites: Sequence[str], texts: Sequence[str], *, threshold: float
) -> List[Tuple[int, int]]:
    """:func:`~repro.core.owners._policy_similarity_pairs` (log-TF, no
    IDF) as a dense Gram matrix and an ``np.triu`` mask."""
    n = len(texts)
    if n < 2:
        return []
    counts = [term_counts(text) for text in texts]
    vocabulary: Dict[str, int] = {}
    for count in counts:
        for term in count:
            vocabulary.setdefault(term, len(vocabulary))
    matrix = np.zeros((n, len(vocabulary)))
    for row, count in enumerate(counts):
        for term, frequency in count.items():
            matrix[row, vocabulary[term]] = 1.0 + np.log(frequency)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    matrix /= norms
    gram = matrix @ matrix.T
    pairs = np.argwhere(np.triu(gram > threshold, k=1))
    return [(int(i), int(j)) for i, j in pairs]


def pairwise_similarities_linear(
    documents: Sequence[str], *, vectorizer: Optional[TfIdfVectorizer] = None
) -> Iterable[Tuple[int, int, float]]:
    """:func:`~repro.text.tfidf.pairwise_similarities` as the O(n²)
    dict-cosine loop over every pair."""
    vectorizer = vectorizer or TfIdfVectorizer()
    vectors = vectorizer.fit_transform(documents)
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            yield (i, j, cosine_similarity(vectors[i], vectors[j]))
