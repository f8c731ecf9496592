"""Render-manifest fast path: manifest == HTMLParser extraction, always.

Two layers of parity:

1. **Response level** — for every HTML response the universe serves
   (porn landings across clients and verification states, regular
   landings, policy pages, error pages, ad frames), the render manifest
   must list exactly the subresources the tolerant HTML parser extracts
   from the body.
2. **Crawl level** — a manifest-driven crawl and a parse-driven crawl of
   the whole corpus must produce byte-identical ``CrawlLog``s.  The
   parse-driven crawl is the browser's fallback for responses without a
   manifest, reached through a universe that strips every manifest.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.browser.browser import Browser, _RESOURCE_TAGS
from repro.html.parser import parse_html
from repro.net.http import Request
from repro.net.url import parse_url
from repro.webgen.universe import ClientContext, FetchError

CLIENTS = (
    ClientContext("ES", "31.0.0.1"),
    ClientContext("US", "3.0.0.1"),
    ClientContext("RU", "5.0.0.1"),
)


def parse_extraction(body: str):
    """The parse-driven fetch list: (kind, url) per resource tag, DOM order.

    Mirrors the browser's historical extraction exactly: resource tags in
    ``_RESOURCE_TAGS`` order would be *fetched* grouped by tag, but the
    manifest stores document order — so compare as multisets per kind.
    """
    document = parse_html(body)
    entries = []
    for tag, attr, _ in _RESOURCE_TAGS:
        for element in document.iter():
            if element.tag != tag:
                continue
            raw = element.get(attr)
            if not raw or raw.startswith("/"):
                continue
            entries.append((tag, raw))
    return entries


def manifest_grouped(manifest):
    """Manifest entries grouped per tag kind in ``_RESOURCE_TAGS`` order."""
    kind_to_tag = {"script": "script", "img": "img", "iframe": "iframe",
                   "link": "link"}
    grouped = []
    for tag, _, _ in _RESOURCE_TAGS:
        grouped.extend(
            (tag, url) for kind, url in manifest if kind_to_tag[kind] == tag
        )
    return grouped


def fetch(universe, url_text, client):
    return universe.fetch(Request(parse_url(url_text)), client)


def iter_html_responses(universe, client):
    """Yield every rendered page type for one client vantage point."""
    for domain, site in sorted(universe.porn_sites.items()):
        if not site.responsive or site.crawl_flaky:
            continue
        scheme = "https" if site.https else "http"
        for path in ("/", "/?verified=1", "/privacy"):
            try:
                response = yield_one(universe, f"{scheme}://{domain}{path}", client)
            except FetchError:
                continue
            if response is not None:
                yield f"porn:{path}", response
    for domain, site in sorted(universe.regular_sites.items()):
        if not site.responsive:
            continue
        scheme = "https" if site.https else "http"
        try:
            response = yield_one(universe, f"{scheme}://{domain}/", client)
        except FetchError:
            continue
        if response is not None:
            yield "regular:/", response


def yield_one(universe, url_text, client):
    response = fetch(universe, url_text, client)
    if "text/html" in response.content_type:
        return response
    return None


class TestResponseManifests:
    @pytest.mark.parametrize("client", CLIENTS, ids=lambda c: c.country_code)
    def test_every_rendered_page_type(self, universe, client):
        """Manifest == parser extraction for every HTML response served."""
        seen = 0
        for label, response in iter_html_responses(universe, client):
            assert response.manifest is not None, label
            assert manifest_grouped(response.manifest) == \
                parse_extraction(response.body), (label, str(response.url))
            seen += 1
        assert seen > 0

    def test_ad_frames_and_error_pages(self, universe):
        client = CLIENTS[0]
        frames = 0
        for domain, site in sorted(universe.porn_sites.items()):
            if not site.responsive or site.crawl_flaky:
                continue
            landing = fetch(
                universe,
                f"{'https' if site.https else 'http'}://{domain}/",
                client,
            )
            for kind, url in landing.manifest:
                if kind != "iframe":
                    continue
                try:
                    frame = fetch(universe, url, client)
                except FetchError:
                    continue
                if not frame.ok or "text/html" not in frame.content_type:
                    continue
                assert frame.manifest is not None
                assert manifest_grouped(frame.manifest) == \
                    parse_extraction(frame.body), url
                frames += 1
            if frames >= 25:
                break
        assert frames > 0

    def test_geo_blocked_page_has_empty_manifest(self, universe):
        blocked = next(
            ((d, s) for d, s in sorted(universe.porn_sites.items())
             if s.responsive and not s.crawl_flaky and s.blocked_countries),
            None,
        )
        if blocked is None:
            pytest.skip("no geo-blocked site at this scale")
        domain, site = blocked
        country = sorted(site.blocked_countries)[0]
        client = ClientContext(country, "9.0.0.1")
        scheme = "https" if site.https else "http"
        response = fetch(universe, f"{scheme}://{domain}/", client)
        assert response.status == 451
        assert response.manifest == ()
        assert parse_extraction(response.body) == []


class _ManifestlessUniverse:
    """A universe whose responses carry no render manifest."""

    def __init__(self, universe):
        self._universe = universe

    def __getattr__(self, name):
        return getattr(self._universe, name)

    def fetch(self, request, client):
        response = self._universe.fetch(request, client)
        return dataclasses.replace(response, manifest=None)


class TestCrawlParity:
    def _crawl(self, universe):
        universe.fetch_cache.clear()
        browser = Browser(universe, ClientContext("ES", "31.0.0.1"))
        for domain in sorted(universe.porn_sites):
            browser.visit(domain)
        for domain in sorted(universe.regular_sites):
            browser.visit(domain)
        return browser.log

    @staticmethod
    def _dump(log):
        return (
            [dataclasses.astuple(record) for record in log.requests],
            [dataclasses.astuple(cookie) for cookie in log.cookies],
            [dataclasses.astuple(visit) for visit in log.visits],
            [repr(call) for call in log.js_calls],
        )

    def test_manifest_crawl_bit_identical_to_parse_crawl(self, universe):
        """The tentpole guarantee: zero observable difference, ever."""
        manifest_log = self._crawl(universe)
        parse_log = self._crawl(_ManifestlessUniverse(universe))
        assert self._dump(manifest_log) == self._dump(parse_log)
        # Sanity: the crawl actually exercised subresources and cookies.
        assert len(manifest_log.requests) > len(manifest_log.visits)
        assert manifest_log.cookies
