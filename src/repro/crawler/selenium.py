"""The Selenium-style interaction crawler (§3.1, §7.2, §7.3).

Separate from the OpenWPM crawler to avoid instrumentation bias, this
crawler *interacts*: it detects age-verification interstitials with the
paper's keyword + parent/grandparent DOM verification, clicks through
them, and fetches privacy policies found by multilingual link matching.
It also records the account/premium cues used for §4.1's business-model
classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..browser.browser import Browser
from ..html.dom import Element
from ..html.parser import parse_html
from ..html.query import links
from ..net.geo import VantagePoint
from ..net.url import URL, URLError, parse_url
from ..text.langs import (
    ACCOUNT_KEYWORDS,
    AGE_GATE_BUTTON_KEYWORDS,
    AGE_WARNING_PHRASES,
    PREMIUM_KEYWORDS,
    PRIVACY_LINK_KEYWORDS,
    all_keywords,
)
from ..webgen.universe import Universe
from .vpn import client_for

__all__ = [
    "AgeGateObservation",
    "PolicyObservation",
    "SiteInspection",
    "SeleniumCrawler",
    "find_age_gate_button",
]

_CLICKABLE_TAGS = frozenset({"button", "a", "input"})

_AFFIRMATIVE = all_keywords(AGE_GATE_BUTTON_KEYWORDS)
_WARNINGS = all_keywords(AGE_WARNING_PHRASES)
_PRIVACY_WORDS = all_keywords(PRIVACY_LINK_KEYWORDS)
_ACCOUNT_WORDS = all_keywords(ACCOUNT_KEYWORDS)
_PREMIUM_WORDS = all_keywords(PREMIUM_KEYWORDS)


@dataclass(frozen=True)
class AgeGateObservation:
    """What the crawler saw (and managed) regarding age verification."""

    detected: bool
    button_text: str = ""
    clicked: bool = False
    bypassed: bool = False
    #: True when the gate demands an external (social) login — the only
    #: mechanism the paper would call *verifiable*.
    requires_login: bool = False


@dataclass(frozen=True)
class PolicyObservation:
    """Outcome of the privacy-policy fetch."""

    link_found: bool
    url: str = ""
    status: Optional[int] = None
    text: str = ""

    @property
    def fetched_ok(self) -> bool:
        return self.status is not None and 200 <= self.status < 300

    @property
    def letter_count(self) -> int:
        return len(self.text)


@dataclass(frozen=True)
class SiteInspection:
    """Everything the interaction crawler extracts from one site."""

    domain: str
    reachable: bool
    age_gate: AgeGateObservation = AgeGateObservation(detected=False)
    policy: PolicyObservation = PolicyObservation(link_found=False)
    has_account_option: bool = False
    has_premium_cue: bool = False
    has_payment_cue: bool = False
    rta_labeled: bool = False


def _ancestor_context(element: Element) -> str:
    """Text around the candidate button (the paper's verification step).

    The context is the parent and grandparent *within the overlay* plus the
    nearest floating ancestor's own text.  Stopping at the overlay keeps
    page-body vocabulary ("adults only" appears on every porn page) from
    validating arbitrary floating buttons — e.g. a cookie banner's Accept.
    """
    fragments: List[str] = []
    overlay = _nearest_floating_ancestor(element)
    for ancestor, _ in zip(element.ancestors(), range(2)):
        if ancestor.tag in ("body", "html"):
            break
        fragments.append(ancestor.text())
        if ancestor is overlay:
            break
    return " ".join(fragments).lower()


def _nearest_floating_ancestor(element: Element) -> Optional[Element]:
    if element.is_floating:
        return element
    for ancestor in element.ancestors():
        if ancestor.is_floating:
            return ancestor
    return None


def _has_floating_ancestor(element: Element) -> bool:
    return _nearest_floating_ancestor(element) is not None


def find_age_gate_button(document: Element) -> Optional[Element]:
    """Locate an age-gate affirmative control.

    A candidate must (1) be clickable, (2) carry an affirmative keyword in
    its own text, and (3) sit inside a floating overlay whose parent or
    grandparent text mentions an age warning.  Step (3) removes the false
    positives that plain keyword matching produces — e.g. body text that
    happens to contain the word "enter".
    """
    for element in document.iter():
        if element.tag not in _CLICKABLE_TAGS:
            continue
        text = element.own_text().lower()
        if element.tag == "input":
            text = (element.get("value") or "").lower()
        if not text or not any(keyword in text for keyword in _AFFIRMATIVE):
            continue
        if not _has_floating_ancestor(element):
            continue
        context = _ancestor_context(element)
        if any(phrase in context for phrase in _WARNINGS):
            return element
    return None


class SeleniumCrawler:
    """Interacts with each site from one vantage point (fresh session per site)."""

    def __init__(self, universe: Universe, vantage: VantagePoint,
                 *, epoch: str = "crawl") -> None:
        self.universe = universe
        self.vantage = vantage
        self.client = client_for(vantage, epoch=epoch)

    # ------------------------------------------------------------------

    def inspect(self, domain: str) -> SiteInspection:
        """Full interaction pass over one site's landing page."""
        browser = Browser(self.universe, self.client)
        visit = browser.visit(domain)
        if not visit.success:
            return SiteInspection(domain, reachable=False)
        document = parse_html(visit.html)

        age_gate = self._handle_age_gate(browser, domain, document)
        policy = self._fetch_policy(browser, domain, document, visit.https)
        page_text = document.text().lower()
        has_account = any(word in page_text for word in _ACCOUNT_WORDS)
        has_premium = any(word in page_text for word in _PREMIUM_WORDS)
        has_payment = any(
            marker in page_text for marker in ("$", "billing", "/month", "payment")
        )
        rta = 'content="rta-5042' in visit.html.lower()
        return SiteInspection(
            domain,
            reachable=True,
            age_gate=age_gate,
            policy=policy,
            has_account_option=has_account,
            has_premium_cue=has_premium,
            has_payment_cue=has_payment,
            rta_labeled=rta,
        )

    # ------------------------------------------------------------------

    def _handle_age_gate(
        self, browser: Browser, domain: str, document: Element
    ) -> AgeGateObservation:
        button = find_age_gate_button(document)
        if button is None:
            return AgeGateObservation(detected=False)
        requires_login = (button.get("data-gate") == "social") or (
            "социальн" in button.own_text().lower()
        )
        # "Click": reload the landing page with the consent token, the way
        # the gate's JavaScript would navigate.
        after = browser.visit(domain, path="/?verified=1")
        bypassed = False
        if after.success:
            after_doc = parse_html(after.html)
            bypassed = find_age_gate_button(after_doc) is None
        return AgeGateObservation(
            detected=True,
            button_text=button.own_text() or (button.get("value") or ""),
            clicked=True,
            bypassed=bypassed,
            requires_login=requires_login,
        )

    def _fetch_policy(
        self, browser: Browser, domain: str, document: Element, https: bool
    ) -> PolicyObservation:
        link = self._find_policy_link(document)
        if link is None:
            return PolicyObservation(link_found=False)
        href = link.get("href") or ""
        scheme = "https" if https else "http"
        if href.startswith("/"):
            url = URL(scheme, domain, None, href)
        else:
            try:
                url = parse_url(href)
            except URLError:
                return PolicyObservation(link_found=False)
        response = browser.fetch(url, page_domain=domain, resource_type="document",
                                 referrer=f"{scheme}://{domain}/")
        if response is None:
            return PolicyObservation(link_found=True, url=str(url), status=None)
        text = parse_html(response.body).text()
        return PolicyObservation(link_found=True, url=str(url),
                                 status=response.status, text=text)

    @staticmethod
    def _find_policy_link(document: Element) -> Optional[Element]:
        for anchor in links(document):
            text = anchor.text().lower()
            if any(word in text for word in _PRIVACY_WORDS):
                return anchor
        return None
