"""Delta inspections: an epoch step reuses the baseline's interaction pass.

With a ``baseline_store`` holding the previous epoch's inspection
artifact, :meth:`Study.inspections` takes the stored
:class:`~repro.crawler.selenium.SiteInspection` of every corpus site the
delta layer proves unchanged and inspects only the rest.  Pinned here:

* the lineage path and the content-hash fallback both inspect exactly
  the changed corpus sites and equal a from-scratch pass;
* a baseline without the artifact gets a full pass;
* sites entering the corpus are inspected, sites leaving it are dropped;
* a tracker-consolidation epoch (attribution changes only) renders the
  same policy, business and Table 1 outputs as a full study;
* chained epochs reuse stores that themselves reused their baselines,
  and an inspection that really changes (seed 2, epoch 3) is refreshed.

Lists are compared unpickled (``==``), not as pickle bytes: shared
default sub-objects can pickle differently.
"""

import pickle

import pytest

from repro import Study, UniverseConfig
from repro.core.corpus import SanitizedCorpus
from repro.crawler import selenium
from repro.datastore import run_key
from repro.reporting import render_section
from repro.webgen.builder import build_universe
from repro.webgen.evolve import ContentHashIndex, evolve_universe

SCALE = 0.02
#: Seed 2 consolidates two tracker organizations at epoch 1.
SEED = 2
CHURN = 0.3


@pytest.fixture
def inspected(monkeypatch):
    """The domains the interaction crawler really inspects, in order."""
    seen = []
    inspect = selenium.SeleniumCrawler.inspect

    def counting(self, domain):
        seen.append(domain)
        return inspect(self, domain)

    monkeypatch.setattr(selenium.SeleniumCrawler, "inspect", counting)
    return seen


@pytest.fixture(scope="module")
def base_universe():
    return build_universe(
        UniverseConfig(seed=SEED, scale=SCALE, churn=CHURN), lazy=True)


@pytest.fixture(scope="module")
def evolved(base_universe):
    return evolve_universe(base_universe)


@pytest.fixture(scope="module")
def full_study(evolved):
    """A from-scratch epoch-1 study: the reference every delta pass meets."""
    return Study(evolved, parallelism=1)


@pytest.fixture(scope="module")
def full_inspections(full_study):
    """The reference pass, computed before any test counts inspections."""
    return full_study.inspections()


def _record_epoch(path, universe, *, baseline=None, corpus=None,
                  inspect=True) -> str:
    """Crawl the home-country porn corpus into a store (so it pins its
    config, as every real baseline does) and optionally record the
    inspection pass; ``corpus`` replaces the study's ``corpus()``."""
    study = Study(universe, store=str(path), baseline_store=baseline,
                  parallelism=1)
    if corpus is not None:
        study._memo_seed("corpus", corpus)
    study.porn_log()
    if inspect:
        study.inspections()
    study.store.close()
    return str(path)


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    return tmp_path_factory.mktemp("inspections")


@pytest.fixture(scope="module")
def epoch0_store(stores, base_universe):
    return _record_epoch(stores / "e0.db", base_universe)


def _delta_study(universe, baseline, path) -> Study:
    return Study(universe, store=str(path), baseline_store=baseline,
                 parallelism=1)


def _stored_inspections(study: Study):
    key = run_key(study.universe.config,
                  study.vantage_points.point(study.home_country),
                  Study._INSPECTIONS_KIND)
    return pickle.loads(study.store.get_artifact(key))


class TestDeltaInspections:
    def test_lineage_inspects_only_changed_sites(
            self, epoch0_store, evolved, full_inspections, inspected,
            tmp_path):
        study = _delta_study(evolved, epoch0_store, tmp_path / "e1.db")
        got = study.inspections()
        assert got == full_inspections
        changed = evolved.changed_domains_since(0)
        assert inspected == [domain for domain in study.corpus_domains()
                             if domain in changed]
        assert 0 < len(inspected) < len(got)
        # The new store records the whole pass, exactly as a full study.
        assert _stored_inspections(study) == got

    def test_content_hash_fallback(self, epoch0_store, base_universe,
                                   full_inspections, inspected, tmp_path):
        universe = evolve_universe(base_universe)
        universe.content_changed_since = {}
        assert universe.changed_domains_since(0) is None
        study = _delta_study(universe, epoch0_store, tmp_path / "e1.db")
        got = study.inspections()
        assert got == full_inspections
        base_index = ContentHashIndex(base_universe)
        target_index = ContentHashIndex(universe)
        assert inspected == [
            domain for domain in study.corpus_domains()
            if base_index.hash_of(domain) != target_index.hash_of(domain)
        ]
        assert 0 < len(inspected) < len(got)

    def test_baseline_without_inspections_runs_full_pass(
            self, stores, base_universe, evolved, full_inspections, inspected,
            tmp_path):
        baseline = _record_epoch(stores / "e0-crawl-only.db", base_universe,
                                 inspect=False)
        inspected.clear()
        study = _delta_study(evolved, baseline, tmp_path / "e1.db")
        assert study.inspections() == full_inspections
        assert inspected == study.corpus_domains()

    def test_sites_entering_and_leaving_the_corpus(
            self, stores, base_universe, evolved, full_study,
            full_inspections, inspected, tmp_path):
        candidates, sanitized = full_study.corpus()
        corpus = sanitized.corpus
        entering = corpus[:5]
        leaving = (sanitized.non_adult + sanitized.unresponsive)[:3]
        assert len(leaving) == 3
        shifted = SanitizedCorpus(
            corpus=corpus[5:] + leaving,
            unresponsive=sanitized.unresponsive,
            non_adult=sanitized.non_adult,
        )
        baseline = _record_epoch(stores / "e0-shifted.db", base_universe,
                                 corpus=(candidates, shifted))
        inspected.clear()
        study = _delta_study(evolved, baseline, tmp_path / "e1.db")
        got = study.inspections()
        assert got == full_inspections
        assert not {inspection.domain for inspection in got} & set(leaving)
        changed = evolved.changed_domains_since(0)
        assert inspected == [domain for domain in corpus
                             if domain in entering or domain in changed]

    def test_consolidation_epoch_renders_like_full_study(
            self, epoch0_store, base_universe, evolved, full_study,
            tmp_path):
        assert any(
            service.organization
            != base_universe.services[domain].organization
            for domain, service in evolved.services.items()
            if domain in base_universe.services
        )
        study = _delta_study(evolved, epoch0_store, tmp_path / "e1.db")
        assert study.inspections() == full_study.inspections()
        assert [i.age_gate for i in study.inspections()] == \
            [i.age_gate for i in full_study.inspections()]
        assert study.policies() == full_study.policies()
        assert study.business_models() == full_study.business_models()
        assert render_section(study, SCALE, "table1") == \
            render_section(full_study, SCALE, "table1")

    def test_chained_epochs(self, stores, epoch0_store, evolved, inspected,
                            tmp_path):
        """Epochs 1 and 2 each reuse the store before them; epoch 3 (where
        a site's inspection really changes) matches a full pass."""
        epoch2 = evolve_universe(evolved)
        epoch3 = evolve_universe(epoch2)
        epoch1_store = _record_epoch(stores / "e1-chain.db", evolved,
                                     baseline=epoch0_store)
        epoch2_store = _record_epoch(stores / "e2-chain.db", epoch2,
                                     baseline=epoch1_store)
        want = Study(evolve_universe(epoch2), parallelism=1).inspections()
        inspected.clear()
        study = _delta_study(epoch3, epoch2_store, tmp_path / "e3.db")
        got = study.inspections()
        assert got == want
        previous = Study(epoch2, store=epoch2_store, store_only=True)
        assert got != previous.inspections()
        changed = epoch3.changed_domains_since(2)
        assert inspected == [domain for domain in study.corpus_domains()
                             if domain in changed]
        assert 0 < len(inspected) < len(got)
