"""Tests for §4.2(3) attribution and §4.2.1-3 ecosystem comparisons."""

import pytest

from repro.blocklists.disconnect import DisconnectEntry, DisconnectList
from repro.core.attribution import AttributionResult, attribute_organizations
from repro.core.ecosystem import build_figure3
from repro.core.partylabel import PartyLabels
from repro.net.tls import Certificate


class TestAttributionUnit:
    def setup_method(self):
        self.disconnect = DisconnectList([
            DisconnectEntry("Alphabet", "advertising", ("doubleclick.net",)),
        ])
        self.certs = {
            "exoclick.com": Certificate("exoclick.com",
                                        subject_o="ExoClick S.L."),
            "dvonly.com": Certificate("dvonly.com", subject_o="dvonly.com"),
        }
        self.whois = {"whoisonly.net": "Whois Media Ltd"}

    def attribute(self, fqdns):
        return attribute_organizations(
            fqdns,
            disconnect=self.disconnect,
            cert_lookup=self.certs.get,
            whois_lookup=self.whois.get,
        )

    def test_disconnect_preferred(self):
        result = self.attribute(["ads.doubleclick.net"])
        assert result.organization_of["ads.doubleclick.net"] == "Alphabet"
        assert "ads.doubleclick.net" in result.via_disconnect

    def test_certificate_fallback(self):
        result = self.attribute(["exoclick.com"])
        assert result.organization_of["exoclick.com"] == "ExoClick S.L."
        assert "exoclick.com" in result.via_certificate

    def test_dv_certificate_rejected(self):
        # Subject repeating the domain carries no organization info.
        result = self.attribute(["dvonly.com"])
        assert "dvonly.com" in result.unattributed

    def test_whois_fallback(self):
        result = self.attribute(["whoisonly.net"])
        assert result.organization_of["whoisonly.net"] == "Whois Media Ltd"
        assert "whoisonly.net" in result.via_whois

    def test_unknown_unattributed(self):
        result = self.attribute(["mystery.party"])
        assert "mystery.party" in result.unattributed
        assert result.attributed_fraction() == 0.0

    def test_domains_of_organization(self):
        result = self.attribute(["ads.doubleclick.net", "exoclick.com"])
        assert result.domains_of("Alphabet") == {"ads.doubleclick.net"}


class TestFigure3Ties:
    def test_ties_rank_by_name_not_first_appearance(self):
        """Which tied organization a page's third-party set yields first
        depends on the set's history (labels pickled back from a forked
        crawl worker iterate differently), so it must not order ties."""
        attribution = AttributionResult(organization_of={
            "a.zeta.com": "Zeta Ads", "b.alpha.com": "Alpha Media",
            "c.beta.com": "Beta Ltd",
        })
        labels = PartyLabels(third_party_direct={
            "one.com": {"a.zeta.com", "c.beta.com"},
            "two.com": {"c.beta.com"},
            "three.com": {"b.alpha.com"},
        })
        bars = build_figure3(
            porn_labels=labels, regular_labels=PartyLabels(),
            porn_attribution=attribution,
            regular_attribution=AttributionResult(),
            porn_visited=3, regular_visited=1,
        )
        assert [bar.organization for bar in bars] == \
            ["Beta Ltd", "Alpha Media", "Zeta Ads"]


class TestAttributionIntegration:
    def test_disconnect_alone_resolves_few_orgs(self, study):
        """§4.2(3): Disconnect alone is incomplete; certs/WHOIS complete it."""
        attribution = study.porn_attribution()
        disconnect_orgs = attribution.disconnect_only_organizations
        assert len(disconnect_orgs) < len(attribution.organizations)

    def test_ground_truth_organizations_recovered(self, universe, study):
        attribution = study.porn_attribution()
        for fqdn, organization in list(
                attribution.organization_of.items())[:50]:
            from repro.net.url import registrable_domain

            service = universe.services.get(registrable_domain(fqdn))
            if service is None:
                continue
            truth = {service.organization, service.cert_org}
            assert organization in truth


class TestEcosystemComparison:
    def test_regular_web_has_more_third_parties(self, study):
        table = study.table2()
        assert table.regular_third_party > table.porn_third_party

    def test_porn_ats_density_higher(self, study):
        """§4.2.1: ATSes are denser/more diverse in porn than regular web."""
        table = study.table2()
        assert table.porn_ats_fraction > 2 * table.regular_ats_fraction

    def test_intersection_small(self, study):
        table = study.table2()
        assert table.fqdn_intersection < 0.35 * table.porn_third_party

    def test_table3_unpopular_tiers_have_unique_tails(self, study):
        """§4.2.2: the long tail concentrates in unpopular tiers."""
        table = study.table3()
        tail = table.rows[2].third_party_unique + table.rows[3].third_party_unique
        head = table.rows[0].third_party_unique + table.rows[1].third_party_unique
        assert tail > head

    def test_all_tier_core_is_small(self, study):
        table = study.table3()
        assert 0.0 < table.all_tier_fraction < 0.15

    def test_exoclick_prevalent_in_porn_only(self, universe, study):
        fig3 = study.figure3(top_n=19)
        exo = next((entry for entry in fig3
                    if "ExoClick" in entry.organization), None)
        if exo is None:
            pytest.skip("ExoClick below top-19 at this scale")
        assert exo.porn_fraction > 0.1
        assert exo.regular_fraction < 0.01

    def test_alphabet_prevalent_in_both(self, study):
        fig3 = study.figure3(top_n=5)
        alphabet = next((entry for entry in fig3
                         if entry.organization == "Alphabet"), None)
        assert alphabet is not None
        assert alphabet.porn_fraction > 0.3
        assert alphabet.regular_fraction > 0.3
