"""The instrumented browser (our OpenWPM-equivalent page loader).

Loading a page means: fetch the document (HTTPS first, downgrading to
HTTP when unsupported, as in §5.2), parse it, fetch every referenced
resource in DOM order, follow redirect chains (cookie syncing lives
there), execute scripts against the instrumented JS APIs, and recurse one
level into iframes (where RTB bidders load dynamically).

The browser keeps a single :class:`~repro.net.cookies.CookieJar` for its
whole lifetime; the paper deliberately reuses one session across the
entire crawl to observe cookie synchronization.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..html.dom import Element
from ..html.parser import parse_html_cached
from ..js.runtime import execute_script
from ..net.cookies import CookieJar
from ..net.http import Headers, Request, Response
from ..net.url import URL, URLError, parse_url, registrable_domain
from ..util import token_for
from ..webgen.universe import ClientContext, FetchError, Universe
from .events import CookieRecord, CrawlLog, PageVisit, RequestRecord

__all__ = ["Browser", "MAX_REDIRECTS"]

MAX_REDIRECTS = 4

_RESOURCE_TAGS = (
    ("script", "src", "script"),
    ("img", "src", "image"),
    ("iframe", "src", "sub_frame"),
    ("link", "href", "stylesheet"),
)

#: Render-manifest kinds in fetch order, mapped to request resource types.
#: The order mirrors ``_RESOURCE_TAGS`` so manifest-driven loads fetch in
#: exactly the sequence the parse-driven path always used.
_MANIFEST_KINDS = (
    ("script", "script"),
    ("img", "image"),
    ("iframe", "sub_frame"),
    ("link", "stylesheet"),
)


class Browser:
    """An instrumented browser bound to one vantage point."""

    def __init__(
        self,
        universe: Universe,
        client: ClientContext,
        *,
        log: Optional[CrawlLog] = None,
        keep_html: bool = True,
        request_filter=None,
    ) -> None:
        """``request_filter(url_str, page_domain, resource_type) -> bool``
        simulates a content blocker: when it returns True the request is
        cancelled before hitting the network (the paper's §10 proposes
        studying exactly this — ad-blocker effectiveness on this ecosystem).
        """
        self.universe = universe
        self.client = client
        self.jar = CookieJar()
        self.log = log if log is not None else CrawlLog(
            country_code=client.country_code, client_ip=client.client_ip
        )
        self.keep_html = keep_html
        self.request_filter = request_filter
        self.blocked_requests = 0

    # ------------------------------------------------------------------
    # Low-level fetching
    # ------------------------------------------------------------------

    def _fetch_once(
        self,
        url: URL,
        *,
        page_domain: str,
        resource_type: str,
        initiator: Optional[str],
        referrer: Optional[str],
    ) -> Tuple[RequestRecord, Optional[Response]]:
        if self.request_filter is not None and resource_type != "document" \
                and self.request_filter(str(url), page_domain, resource_type):
            self.blocked_requests += 1
            record = RequestRecord(
                url=str(url), fqdn=url.host, scheme=url.scheme,
                page_domain=page_domain, resource_type=resource_type,
                initiator=initiator, referrer=referrer,
                seq=self.log.next_seq(), failed=True, error="BLOCKED",
            )
            return record, None
        record = RequestRecord(
            url=str(url),
            fqdn=url.host,
            scheme=url.scheme,
            page_domain=page_domain,
            resource_type=resource_type,
            initiator=initiator,
            referrer=referrer,
            seq=self.log.next_seq(),
        )
        self.log.requests.append(record)

        if self.universe.dns.try_resolve(url.host) is None:
            record.failed = True
            record.error = "NXDOMAIN"
            return record, None

        headers = Headers()
        if referrer:
            headers.set("Referer", referrer)
        cookie_header = self.jar.cookie_header_for(url)
        if cookie_header:
            headers.set("Cookie", cookie_header)
        request = Request(url, headers=headers, initiator=initiator,
                          resource_type=resource_type)
        try:
            response = self.universe.fetch(request, self.client)
        except FetchError as exc:
            record.failed = True
            record.error = type(exc).__name__
            return record, None

        record.status = response.status
        if response.is_redirect and response.location:
            record.redirect_location = response.location
        self._store_cookies(response, url, page_domain)
        return record, response

    def _store_cookies(self, response: Response, url: URL, page_domain: str) -> None:
        stored = self.jar.store_from_response(response.set_cookie_headers, url.host)
        for cookie in stored:
            self.log.cookies.append(
                CookieRecord(
                    page_domain=page_domain,
                    set_by_host=url.host,
                    domain=cookie.domain,
                    name=cookie.name,
                    value=cookie.value,
                    session=cookie.session,
                    secure=cookie.secure,
                    over_https=url.is_secure,
                    seq=self.log.next_seq(),
                )
            )

    def fetch(
        self,
        url: URL,
        *,
        page_domain: str,
        resource_type: str,
        initiator: Optional[str] = None,
        referrer: Optional[str] = None,
    ) -> Optional[Response]:
        """Fetch a URL, following redirects; returns the final response.

        Redirect hops carry the *redirecting* URL as referrer/initiator:
        that is the signal the paper's inclusion-chain analysis uses to
        prune third parties "not directly called by the publisher".
        """
        response: Optional[Response] = None
        current = url
        hop_initiator = initiator
        hop_referrer = referrer
        for _ in range(MAX_REDIRECTS + 1):
            record, response = self._fetch_once(
                current,
                page_domain=page_domain,
                resource_type=resource_type,
                initiator=hop_initiator,
                referrer=hop_referrer,
            )
            if response is None or not response.is_redirect:
                return response
            location = response.location
            if not location:
                return response
            try:
                next_url = parse_url(location)
            except URLError:
                return response
            hop_initiator = str(current)
            hop_referrer = str(current)
            current = next_url
        return response

    # ------------------------------------------------------------------
    # Page loading
    # ------------------------------------------------------------------

    def visit(self, site_domain: str, *, path: str = "/") -> PageVisit:
        """Load a site's landing page with all subresources.

        Tries HTTPS first and downgrades to HTTP when the server does not
        support TLS (mirroring the paper's §5.2 measurement method).
        """
        response = None
        final_url: Optional[URL] = None
        for scheme in ("https", "http"):
            candidate = parse_url(f"{scheme}://{site_domain}{path}")
            record, response = self._fetch_once(
                candidate,
                page_domain=site_domain,
                resource_type="document",
                initiator=None,
                referrer=None,
            )
            if response is not None:
                final_url = candidate
                break
            if record.error != "TLSUnsupportedError":
                # Dead site / timeout / NXDOMAIN / no route / geo-excluded:
                # the failure is scheme-independent, downgrading won't help.
                break

        if response is None or final_url is None:
            visit = PageVisit(site_domain, f"https://{site_domain}{path}",
                              success=False,
                              failure_reason=(record.error or "unreachable"))
            self.log.visits.append(visit)
            return visit

        visit = PageVisit(
            site_domain,
            str(final_url),
            success=response.ok,
            status=response.status,
            https=final_url.is_secure,
            html=response.body if self.keep_html else "",
        )
        self.log.visits.append(visit)
        if not response.ok or "text/html" not in response.content_type:
            return visit

        self._load_page(response, page_url=final_url,
                        page_domain=site_domain, depth=0)
        return visit

    def _resource_entries(self, response: Response) -> List[Tuple[str, str]]:
        """The ordered ``(resource_type, url)`` fetch list of an HTML response.

        Prefers the server's render manifest (no parsing at all); falls
        back to the one-pass DOM extraction when the response carries none
        (the two produce bit-identical crawl logs — see
        ``tests/test_manifest_parity.py``).
        """
        if response.manifest is not None:
            manifest = response.manifest
            return [
                (resource_type, url)
                for kind, resource_type in _MANIFEST_KINDS
                for entry_kind, url in manifest
                if entry_kind == kind
            ]
        # The tree is only iterated (never mutated), so the shared
        # content-hash parse cache is safe here.
        return self._extract_entries(parse_html_cached(response.body))

    @staticmethod
    def _extract_entries(document: Element) -> List[Tuple[str, str]]:
        """One DOM traversal, bucketed by tag.

        The historical code walked the full tree once per resource tag;
        bucketing keeps the identical fetch order (tags in
        ``_RESOURCE_TAGS`` order, DOM pre-order within a tag) at a quarter
        of the traversal cost.
        """
        buckets: dict = {tag: [] for tag, _, _ in _RESOURCE_TAGS}
        for element in document.iter():
            bucket = buckets.get(element.tag)
            if bucket is not None:
                bucket.append(element)
        entries: List[Tuple[str, str]] = []
        for tag, attr, resource_type in _RESOURCE_TAGS:
            for element in buckets[tag]:
                raw = element.get(attr)
                if not raw or raw.startswith("/"):
                    continue  # same-document relative assets are not logged
                entries.append((resource_type, raw))
        return entries

    def _load_page(
        self, page_response: Response, *, page_url: URL, page_domain: str,
        depth: int
    ) -> None:
        page_url_text = str(page_url)
        for resource_type, raw in self._resource_entries(page_response):
            try:
                url = parse_url(raw)
            except URLError:
                continue
            response = self.fetch(
                url,
                page_domain=page_domain,
                resource_type=resource_type,
                initiator=page_url_text if depth else None,
                referrer=page_url_text,
            )
            if response is None or not response.ok:
                continue
            if resource_type == "script":
                self._execute_script(url, page_domain=page_domain,
                                     page_url_text=page_url_text)
            elif resource_type == "sub_frame" and depth < 1:
                self._load_page(response, page_url=url,
                                page_domain=page_domain, depth=depth + 1)

    def _apply_document_cookie(
        self, script_url: URL, page_domain: str, directive
    ) -> None:
        """Materialize a ``document.cookie`` write as a first-party cookie.

        Analytics snippets (the ``_ga`` pattern) store their identifier on
        the *page's* domain; an empty value means the script mints a fresh
        per-browser identifier, which we derive deterministically from the
        script host and client.
        """
        name, value = directive
        if not value:
            value = token_for(26, script_url.host, name, self.client.client_ip)
        header = f"{name}={value}; Path=/; Max-Age=63072000"
        stored = self.jar.store_from_response([header], page_domain)
        for cookie in stored:
            self.log.cookies.append(
                CookieRecord(
                    page_domain=page_domain,
                    set_by_host=page_domain,
                    domain=cookie.domain,
                    name=cookie.name,
                    value=cookie.value,
                    session=cookie.session,
                    secure=cookie.secure,
                    over_https=True,
                    seq=self.log.next_seq(),
                )
            )

    def _execute_script(
        self, script_url: URL, *, page_domain: str, page_url_text: str
    ) -> None:
        behavior = self.universe.script_behavior(script_url)
        if behavior is None:
            return
        calls, follow_ups = execute_script(
            str(script_url), behavior, document_host=page_domain
        )
        self.log.js_calls.extend(calls)
        if behavior.sets_document_cookie is not None:
            self._apply_document_cookie(script_url, page_domain,
                                        behavior.sets_document_cookie)
        for follow_up in follow_ups:
            try:
                url = parse_url(follow_up)
            except URLError:
                continue
            self.fetch(
                url,
                page_domain=page_domain,
                resource_type="xhr",
                initiator=str(script_url),
                referrer=page_url_text,
            )
