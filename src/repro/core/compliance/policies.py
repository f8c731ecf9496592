"""Section 7.3 — privacy policies versus observed behavior.

Pipeline: collect policies via the interaction crawler; discard the
HTTP-error false positives (abnormally short texts behind broken links);
measure GDPR mentions and length statistics; compute all-pairs TF-IDF
similarity (the paper's 1.2M-pair computation — here vectorized with
numpy); and cross-check disclosed practices (a Polisis-style summary)
against the tracking observed on each site.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ...crawler.selenium import PolicyObservation, SeleniumCrawler
from ...crawler.vpn import VantagePointManager
from ...webgen.universe import Universe

__all__ = [
    "CollectedPolicy",
    "DisclosureSummary",
    "PolicyReport",
    "collect_policies",
    "analyze_policies",
    "pairwise_similarity_fractions",
    "extract_disclosures",
]

_GDPR_RE = re.compile(r"GDPR|General Data Protection Regulation", re.IGNORECASE)

#: Policies shorter than this (in letters) after an HTTP error are the
#: §7.3 false positives the authors removed manually.
MIN_POLICY_LETTERS = 600


@dataclass(frozen=True)
class CollectedPolicy:
    site_domain: str
    text: str
    status: Optional[int]

    @property
    def letters(self) -> int:
        return len(self.text)

    @property
    def valid(self) -> bool:
        ok_status = self.status is not None and 200 <= self.status < 300
        return ok_status and self.letters >= MIN_POLICY_LETTERS


@dataclass(frozen=True)
class DisclosureSummary:
    """Polisis-style summary of what one policy admits to."""

    discloses_cookies: bool
    discloses_data_types: bool
    discloses_third_parties: bool
    mentioned_domains: Tuple[str, ...] = ()

    @property
    def discloses_practices(self) -> bool:
        return (self.discloses_cookies and self.discloses_data_types
                and self.discloses_third_parties)


def extract_disclosures(
    text: str, *, candidate_domains: Iterable[str] = ()
) -> DisclosureSummary:
    """Keyword-section extraction standing in for the Polisis classifier."""
    lowered = text.lower()
    mentioned = tuple(
        domain for domain in candidate_domains if domain.lower() in lowered
    )
    return DisclosureSummary(
        discloses_cookies="cookie" in lowered,
        discloses_data_types=any(
            marker in lowered
            for marker in ("categories of data", "data we collect",
                           "information we collect", "informations of navigation",
                           "connection data")
        ),
        discloses_third_parties=any(
            marker in lowered
            for marker in ("third party", "third-party", "advertising partners",
                           "advertising networks", "external companies")
        ),
        mentioned_domains=mentioned,
    )


def collect_policies(
    universe: Universe,
    corpus: Sequence[str],
    *,
    country: str = "ES",
    vantage_points: Optional[VantagePointManager] = None,
) -> List[CollectedPolicy]:
    """Fetch each site's privacy policy with the interaction crawler."""
    manager = vantage_points or VantagePointManager()
    crawler = SeleniumCrawler(universe, manager.point(country))
    collected = []
    for domain in corpus:
        inspection = crawler.inspect(domain)
        observation: PolicyObservation = inspection.policy
        if not inspection.reachable or not observation.link_found:
            continue
        collected.append(
            CollectedPolicy(domain, observation.text, observation.status)
        )
    return collected


def pairwise_similarity_fractions(
    texts: Sequence[str], *, threshold: float = 0.5
) -> Tuple[float, int]:
    """Fraction of document pairs with TF-IDF cosine above ``threshold``.

    The paper's 1.2M pairwise comparisons stream through the blocked
    sparse gram kernel (:class:`~repro.text.sparse.SimilarityEngine`):
    above-threshold pairs are *counted* per block strip, so neither the
    pair list nor any ``(n × vocab)`` / ``n × n`` array is materialized.
    Returns ``(fraction, total_pairs)``.
    """
    n = len(texts)
    if n < 2:
        return (0.0, 0)
    from ...text.sparse import SimilarityEngine

    engine = SimilarityEngine(use_idf=True).fit(texts)
    count, total_pairs = engine.count_pairs_above(threshold)
    return (count / total_pairs, total_pairs)


@dataclass
class PolicyReport:
    """Everything §7.3 reports."""

    corpus_size: int = 0
    collected: int = 0
    valid_policies: List[CollectedPolicy] = field(default_factory=list)
    http_error_false_positives: int = 0
    gdpr_mentions: int = 0
    mean_letters: float = 0.0
    min_letters: int = 0
    max_letters: int = 0
    similar_pair_fraction: float = 0.0
    pair_count: int = 0
    #: site -> Polisis-style disclosure summary.
    disclosures: Dict[str, DisclosureSummary] = field(default_factory=dict)
    full_list_sites: List[str] = field(default_factory=list)

    @property
    def presence_fraction(self) -> float:
        return len(self.valid_policies) / self.corpus_size \
            if self.corpus_size else 0.0

    @property
    def gdpr_fraction(self) -> float:
        return self.gdpr_mentions / len(self.valid_policies) \
            if self.valid_policies else 0.0

    def disclosure_fraction(self, sites: Iterable[str]) -> float:
        """Of the given sites *with policies*, how many disclose practices."""
        relevant = [s for s in sites if s in self.disclosures]
        if not relevant:
            return 0.0
        return sum(
            1 for s in relevant if self.disclosures[s].discloses_practices
        ) / len(relevant)


def analyze_policies(
    policies: Sequence[CollectedPolicy],
    *,
    corpus_size: int,
    observed_third_parties: Optional[Dict[str, Set[str]]] = None,
    similarity_threshold: float = 0.5,
    full_list_coverage: float = 0.8,
) -> PolicyReport:
    """Run the §7.3 measurements over collected policies."""
    report = PolicyReport(corpus_size=corpus_size, collected=len(policies))
    for policy in policies:
        if policy.valid:
            report.valid_policies.append(policy)
        else:
            report.http_error_false_positives += 1

    lengths = [policy.letters for policy in report.valid_policies]
    if lengths:
        report.mean_letters = float(np.mean(lengths))
        report.min_letters = int(min(lengths))
        report.max_letters = int(max(lengths))
    report.gdpr_mentions = sum(
        1 for policy in report.valid_policies if _GDPR_RE.search(policy.text)
    )
    report.similar_pair_fraction, report.pair_count = \
        pairwise_similarity_fractions(
            [policy.text for policy in report.valid_policies],
            threshold=similarity_threshold,
        )

    observed = observed_third_parties or {}
    for policy in report.valid_policies:
        candidates = sorted(observed.get(policy.site_domain, ()))
        summary = extract_disclosures(policy.text, candidate_domains=candidates)
        report.disclosures[policy.site_domain] = summary
        if candidates and len(summary.mentioned_domains) >= \
                full_list_coverage * len(candidates):
            report.full_list_sites.append(policy.site_domain)
    return report
