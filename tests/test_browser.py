"""Integration tests for the instrumented browser."""

import pytest

from repro.browser.browser import Browser
from repro.net.url import parse_url, registrable_domain
from repro.webgen.universe import ClientContext

ES = ClientContext("ES", "31.0.0.1")


@pytest.fixture()
def browser(universe):
    return Browser(universe, ES)


def cookie_site(universe):
    return next(
        d for d, s in sorted(universe.porn_sites.items())
        if s.responsive and not s.crawl_flaky and s.first_party_cookies > 0
        and s.embedded_services
    )


class TestVisit:
    def test_successful_visit_records_document(self, universe, browser):
        domain = cookie_site(universe)
        visit = browser.visit(domain)
        assert visit.success
        assert visit.html
        documents = [r for r in browser.log.requests
                     if r.resource_type == "document"]
        assert any(r.fqdn == domain for r in documents)

    def test_https_first_then_downgrade(self, universe):
        domain = next(
            d for d, s in sorted(universe.porn_sites.items())
            if s.responsive and not s.crawl_flaky and not s.https
        )
        browser = Browser(universe, ES)
        visit = browser.visit(domain)
        assert visit.success
        assert not visit.https
        schemes = [r.scheme for r in browser.log.requests
                   if r.resource_type == "document" and r.fqdn == domain]
        assert schemes[0] == "https"   # attempted first
        assert schemes[-1] == "http"   # succeeded after downgrade

    def test_unreachable_site(self, universe, browser):
        dead = next(d for d, s in universe.porn_sites.items()
                    if not s.responsive)
        visit = browser.visit(dead)
        assert not visit.success
        assert visit.failure_reason

    def test_subresources_fetched(self, universe, browser):
        domain = cookie_site(universe)
        browser.visit(domain)
        third_party = [
            r for r in browser.log.requests
            if registrable_domain(r.fqdn) != registrable_domain(domain)
        ]
        assert third_party

    def test_referrer_set_on_subresources(self, universe, browser):
        domain = cookie_site(universe)
        visit = browser.visit(domain)
        for record in browser.log.requests:
            if record.resource_type in ("script", "image") and \
                    record.page_domain == domain and record.initiator is None:
                assert record.referrer == visit.url

    def test_cookies_recorded_and_jar_populated(self, universe, browser):
        domain = cookie_site(universe)
        browser.visit(domain)
        assert browser.log.cookies
        assert len(browser.jar) > 0
        first_party = [c for c in browser.log.cookies if c.domain == domain]
        assert first_party

    def test_sequence_numbers_strictly_increasing(self, universe, browser):
        browser.visit(cookie_site(universe))
        sequences = [r.seq for r in browser.log.requests] + \
            [c.seq for c in browser.log.cookies]
        assert len(sequences) == len(set(sequences))

    def test_session_persists_across_visits(self, universe):
        browser = Browser(universe, ES)
        sites = sorted(
            d for d, s in universe.porn_sites.items()
            if s.responsive and not s.crawl_flaky
        )[:5]
        for site in sites:
            browser.visit(site)
        # Cookies from earlier sites are still present later (single session).
        assert len(browser.jar) > 0
        assert len({c.page_domain for c in browser.log.cookies}) >= 1

    def test_js_calls_recorded(self, universe):
        browser = Browser(universe, ES)
        sites = sorted(
            d for d, s in universe.porn_sites.items()
            if s.responsive and not s.crawl_flaky
        )[:20]
        for site in sites:
            browser.visit(site)
        assert browser.log.js_calls

    def test_keep_html_false_drops_body(self, universe):
        browser = Browser(universe, ES, keep_html=False)
        visit = browser.visit(cookie_site(universe))
        assert visit.success
        assert visit.html == ""


class TestLoadDocument:
    """The document step alone returns exactly what a full visit returns."""

    @pytest.mark.parametrize("seed", [2, 20191021])
    def test_document_step_matches_visit(self, seed):
        from repro import UniverseConfig
        from repro.core.corpus import compile_candidates
        from repro.crawler.vpn import VantagePointManager, client_for
        from repro.webgen.builder import build_universe

        universe = build_universe(UniverseConfig(seed=seed, scale=0.02),
                                  lazy=True)
        home = VantagePointManager().point("ES")
        clients = [client_for(home, epoch="sanitization"),
                   client_for(home, epoch="crawl")]
        for domain in compile_candidates(universe).domains:
            for client, path in zip(clients, ("/", "/?verified=1")):
                full = Browser(universe, client)
                document = Browser(universe, client)
                visit = full.visit(domain, path=path)
                assert document.load_document(domain, path=path) == visit
                assert document.log.visits == [visit]
                assert {r.resource_type for r in document.log.requests} \
                    == {"document"}

    def test_document_step_skips_subresources(self, universe):
        domain = cookie_site(universe)
        full = Browser(universe, ES)
        full.visit(domain)
        document = Browser(universe, ES)
        document.load_document(domain)
        assert len(document.log.requests) < len(full.log.requests)
        assert not document.log.js_calls


class TestRedirects:
    def test_sync_redirect_followed_and_relabeled(self, universe):
        """Redirect hops carry the redirector as referrer (inclusion chain)."""
        browser = Browser(universe, ES)
        response = browser.fetch(
            parse_url("https://exosrv.com/px?cb=1"),
            page_domain="syntheticpage.com",
            resource_type="image",
            referrer="https://syntheticpage.com/",
        )
        assert response is not None
        hops = [r for r in browser.log.requests if "/sync" in r.url]
        for hop in hops:
            assert hop.referrer != "https://syntheticpage.com/"

    def test_redirect_chain_bounded(self, universe):
        browser = Browser(universe, ES)
        browser.fetch(
            parse_url("https://exosrv.com/px?cb=1"),
            page_domain="deepchain.com",
            resource_type="image",
            referrer="https://deepchain.com/",
        )
        assert len(browser.log.requests) <= 6


class _StubDNS:
    def try_resolve(self, host):
        return "203.0.113.1"


class _StubUniverse:
    """Minimal server: per-scheme outcome table, call log for assertions."""

    def __init__(self, outcomes):
        self.dns = _StubDNS()
        self.outcomes = outcomes  # scheme -> Response | Exception
        self.fetched = []

    def fetch(self, request, client):
        self.fetched.append(str(request.url))
        outcome = self.outcomes[request.url.scheme]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def script_behavior(self, url):
        return None


class TestHTTPSDowngradePolicy:
    """Only a refused TLS handshake justifies retrying over plain HTTP."""

    def _visit(self, outcomes):
        universe = _StubUniverse(outcomes)
        browser = Browser(universe, ES)
        return universe, browser, browser.visit("stub-site.com")

    def test_tls_unsupported_downgrades_to_http(self):
        from repro.net.http import Headers, Response
        from repro.webgen.universe import TLSUnsupportedError

        ok = Response(parse_url("http://stub-site.com/"), 200,
                      Headers([("Content-Type", "text/html")]),
                      "<html></html>", manifest=())
        universe, browser, visit = self._visit({
            "https": TLSUnsupportedError("stub-site.com does not support HTTPS"),
            "http": ok,
        })
        assert visit.success
        assert not visit.https
        assert [u.split(":")[0] for u in universe.fetched] == ["https", "http"]

    def test_plain_fetch_error_is_not_retried_over_http(self):
        """Geo-excluded / no-route failures are scheme-independent: one
        failed document record, not two (the satellite fix)."""
        from repro.webgen.universe import FetchError

        universe, browser, visit = self._visit({
            "https": FetchError("no route to host stub-site.com"),
            "http": FetchError("no route to host stub-site.com"),
        })
        assert not visit.success
        assert visit.failure_reason == "FetchError"
        assert universe.fetched == ["https://stub-site.com/"]
        documents = [r for r in browser.log.requests
                     if r.resource_type == "document"]
        assert len(documents) == 1

    def test_unresponsive_site_is_not_retried(self):
        from repro.webgen.universe import SiteUnresponsiveError

        universe, browser, visit = self._visit({
            "https": SiteUnresponsiveError("stub-site.com"),
            "http": SiteUnresponsiveError("stub-site.com"),
        })
        assert not visit.success
        assert len(universe.fetched) == 1

    def test_tls_error_comes_from_universe_https_check(self, universe):
        """The three serving paths raise the dedicated subclass."""
        import pytest as _pytest

        from repro.net.http import Request
        from repro.webgen.universe import TLSUnsupportedError

        no_tls_site = next(
            (d for d, s in sorted(universe.porn_sites.items())
             if s.responsive and not s.crawl_flaky and not s.https),
            None,
        )
        assert no_tls_site is not None
        with _pytest.raises(TLSUnsupportedError):
            universe.fetch(Request(parse_url(f"https://{no_tls_site}/")), ES)
        no_tls_service = next(
            (d for d, s in sorted(universe.services.items()) if not s.https),
            None,
        )
        if no_tls_service is not None:
            with _pytest.raises(TLSUnsupportedError):
                universe.fetch(
                    Request(parse_url(f"https://{no_tls_service}/px")), ES
                )
