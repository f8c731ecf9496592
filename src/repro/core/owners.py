"""Section 4.1 / Table 1 — discovering website owners.

Two-stage method, as in the paper:

1. *Discovery*: TF-IDF similarity between privacy policies and between
   landing-page ``<head>`` markup proposes candidate same-owner pairs.
2. *Verification* (the paper's manual pass, automated here): a candidate
   pair is confirmed only when both sites carry the same organization
   evidence — the company named in the policy's controller clause, the
   ``<head>`` copyright/network metadata, or the X.509 Subject
   organization.  This kills the false positives that template-shared
   boilerplate would otherwise create.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..html.parser import parse_html_cached
from ..html.query import head, meta_tags
from ..net.tls import Certificate

__all__ = [
    "OwnerCluster",
    "OwnerReport",
    "extract_policy_company",
    "extract_head_organization",
    "normalize_company",
    "discover_owners",
]

_POLICY_COMPANY_RE = re.compile(
    r"explains how (.+?) collects|controller in respect of personal data "
    r"processed through .+? include|operated by (.+?) as part",
    re.IGNORECASE,
)

_GENERIC_COMPANY_RE = re.compile(r"^the operator of ", re.IGNORECASE)

_LEGAL_SUFFIXES = (
    "ltd.", "ltd", "inc.", "inc", "llc", "s.l.", "s.l", "b.v.", "b.v",
    "sarl", "s.a.", "s.a", "ou", "corp.", "corp", "media group", "holding",
)


def normalize_company(name: str) -> str:
    """Canonical company key: lower-case, legal suffixes stripped."""
    cleaned = name.strip().lower().rstrip(".")
    changed = True
    while changed:
        changed = False
        for suffix in _LEGAL_SUFFIXES:
            if cleaned.endswith(" " + suffix):
                cleaned = cleaned[: -len(suffix) - 1].strip()
                changed = True
    return cleaned


def extract_policy_company(text: str) -> Optional[str]:
    """The data-controller name stated in a privacy policy, if concrete."""
    match = _POLICY_COMPANY_RE.search(text)
    if not match:
        return None
    company = next((group for group in match.groups() if group), None)
    if not company:
        return None
    company = company.strip().strip('."')
    if _GENERIC_COMPANY_RE.match(company):
        return None
    return company


def extract_head_organization(html: str) -> Optional[str]:
    """Owner evidence in ``<head>``: copyright meta or network CMS tag."""
    # Only <head> metadata is consulted and the renderer always emits a
    # literal "</head>", so parsing stops there: landing-page bodies are
    # many times the head's size and never carry owner evidence (the
    # only body meta the universe produces is the RTA label).  Markup
    # without a head terminator falls back to the full parse.
    head_end = html.find("</head>")
    if head_end != -1:
        html = html[: head_end + len("</head>")]
    # Read-only queries only, so the shared parse cache is safe.
    document = parse_html_cached(html)
    head_element = head(document)
    if head_element is None:
        return None
    for meta in meta_tags(document, "copyright"):
        content = meta.get("content")
        if content:
            return content
    for meta in meta_tags(document, "generator"):
        content = meta.get("content") or ""
        match = re.match(r"(.+?) Network CMS", content)
        if match:
            return match.group(1)
    return None


@dataclass
class OwnerCluster:
    """One Table 1 row: a company and its websites."""

    company: str
    sites: List[str] = field(default_factory=list)
    evidence: Set[str] = field(default_factory=set)  # policy|head|certificate

    @property
    def size(self) -> int:
        return len(self.sites)

    def most_popular(self, best_rank: Callable[[str], int]) -> Tuple[str, int]:
        ranked = sorted(
            ((best_rank(site) or 10**9, site) for site in self.sites)
        )
        rank, site = ranked[0]
        return (site, rank)


@dataclass
class OwnerReport:
    clusters: List[OwnerCluster] = field(default_factory=list)
    #: Pairs proposed by TF-IDF that verification rejected.
    rejected_pairs: int = 0
    attributed_sites: int = 0

    def table1(
        self, best_rank: Callable[[str], int], *, top_n: int = 15
    ) -> List[Tuple[str, int, str, int]]:
        """(company, #sites, flagship, flagship best rank), largest first."""
        rows = []
        for cluster in sorted(self.clusters, key=lambda c: -c.size)[:top_n]:
            site, rank = cluster.most_popular(best_rank)
            rows.append((cluster.company, cluster.size, site, rank))
        return rows


def _policy_similarity_pairs(
    sites: Sequence[str], texts: Sequence[str], *, threshold: float
) -> List[Tuple[int, int]]:
    """Candidate same-owner pairs from policy TF similarity.

    Log-TF weighting without IDF, streamed from the blocked sparse gram
    kernel: no ``(n × vocab)`` matrix, no ``n × n`` gram, and no
    ``np.triu`` boolean mask are ever allocated.  Pairs come in row-major
    upper-triangle order.
    """
    if len(texts) < 2:
        return []
    from ..text.sparse import SimilarityEngine

    engine = SimilarityEngine(use_idf=False).fit(texts)
    return list(engine.similar_pairs(threshold))


def discover_owners(
    *,
    policy_texts: Dict[str, str],
    landing_html: Dict[str, str],
    cert_lookup: Optional[Callable[[str], Optional[Certificate]]] = None,
    policy_threshold: float = 0.9,
) -> OwnerReport:
    """Run discovery + verification and return the owner clusters."""
    report = OwnerReport()

    evidence_of: Dict[str, Tuple[str, str]] = {}  # site -> (company key, kind)
    display_name: Dict[str, str] = {}

    def record_evidence(site: str, company: str, kind: str) -> None:
        key = normalize_company(company)
        if not key:
            return
        if site not in evidence_of:
            evidence_of[site] = (key, kind)
            display_name.setdefault(key, company.strip())

    for site, text in policy_texts.items():
        company = extract_policy_company(text)
        if company:
            record_evidence(site, company, "policy")
    for site, html in landing_html.items():
        organization = extract_head_organization(html)
        if organization:
            record_evidence(site, organization, "head")
    if cert_lookup is not None:
        for site in landing_html:
            certificate = cert_lookup(site)
            if certificate is not None and certificate.has_organization:
                record_evidence(site, certificate.subject_o, "certificate")

    # Discovery stage: TF-IDF candidate pairs over policies; count how many
    # the verification stage rejects (the paper's manual-filter analogue).
    policy_sites = [site for site in policy_texts if policy_texts[site]]
    candidate_pairs = _policy_similarity_pairs(
        policy_sites, [policy_texts[site] for site in policy_sites],
        threshold=policy_threshold,
    )
    for i, j in candidate_pairs:
        left = evidence_of.get(policy_sites[i])
        right = evidence_of.get(policy_sites[j])
        if left is None or right is None or left[0] != right[0]:
            report.rejected_pairs += 1

    clusters: Dict[str, OwnerCluster] = {}
    for site, (key, kind) in evidence_of.items():
        cluster = clusters.get(key)
        if cluster is None:
            cluster = OwnerCluster(company=display_name[key])
            clusters[key] = cluster
        cluster.sites.append(site)
        cluster.evidence.add(kind)
    report.clusters = [cluster for cluster in clusters.values()]
    report.attributed_sites = sum(cluster.size for cluster in report.clusters)
    return report
