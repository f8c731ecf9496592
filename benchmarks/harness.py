"""Shared setup of the gate scripts: probes, fresh-process launchers, renders.

``scale_check.py``, ``delta_check.py``, ``incremental_check.py`` and
``serve_check.py`` keep only their gate logic; everything they run lives
here:

* four probes — :func:`run_memory_probe`, :func:`run_reference_probe`,
  :func:`run_delta_probe` and :func:`run_incremental_probe` — each
  returning a JSON-able dict;
* :func:`run_probe`, which runs one probe in a fresh interpreter, so its
  ``ru_maxrss`` high-water mark and process-wide caches belong to that
  probe alone;
* :func:`store_study` / :func:`render_sections`, every section a
  single-vantage crawl supports rendered from a store-only study, and
  :func:`cli_report`, ``repro report`` run in a separate process.

The child entry is ``python benchmarks/harness.py PROBE KWARGS``, where
``KWARGS`` is the probe's keyword arguments as a JSON object; it prints
the probe's result as one JSON line.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pathlib
import sqlite3
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Fetch-cache entry cap for the memory probes.  The default cache
#: (200k entries) is effectively unbounded at probe scales; pinning a
#: uniform small cap across scales keeps resident response bytes a
#: constant so the probe measures the pipeline, not the cache.
MEM_PROBE_FETCH_CACHE = 5000

#: Shard count for the memory probe's store.
MEM_PROBE_SHARDS = 4

#: Sections renderable from a single-vantage porn(home) + regular crawl
#: (Tables 1/7/8 need the inspection pass or extra vantage points).
STORE_SECTIONS = ("corpus", "table2", "table3", "figure3", "table4",
                  "figure4", "table5", "table6", "malware")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    return env


def run_probe(probe: str, **kwargs) -> dict:
    """Run one probe (a key of :data:`PROBES`) in a fresh interpreter."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               probe, json.dumps(kwargs)]
    result = subprocess.run(command, env=_child_env(), capture_output=True,
                            text=True)
    if result.returncode != 0:
        raise RuntimeError(f"{probe} probe {kwargs} failed:\n{result.stderr}")
    return json.loads(result.stdout)


def cli_report(store: str) -> str:
    """``python -m repro report --store STORE``, in a separate process."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "report", "--store", store],
        capture_output=True, text=True, cwd=REPO_ROOT, env=_child_env(),
    )
    if result.returncode != 0:
        raise RuntimeError(f"repro report failed:\n{result.stderr}")
    return result.stdout


def store_study(store_path: str, *, incremental: bool = False):
    """A store-only study over the store at ``store_path``."""
    from repro import Study
    from repro.datastore import CrawlStore
    from repro.webgen.builder import build_universe

    store = CrawlStore(store_path)
    return Study(build_universe(store.stored_config(), lazy=True),
                 store=store, store_only=True,
                 aggregate_cache=incremental or None)


def render_sections(study) -> dict:
    """Every section in :data:`STORE_SECTIONS`, rendered from ``study``."""
    from repro.reporting import render_section

    scale = study.universe.config.scale
    return {name: render_section(study, scale, name)
            for name in STORE_SECTIONS}


def _peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    divisor = 2 ** 20 if sys.platform == "darwin" else 2 ** 10
    return round(peak / divisor, 1)


def _tables_digest(reader) -> str:
    """SHA-256 over the rendered Tables 2/4/6 of a study."""
    from repro.reporting.tables import (
        render_table2,
        render_table4,
        render_table6,
    )

    rendered = "\n".join((
        render_table2(reader.table2()),
        render_table4(reader.cookie_stats()),
        render_table6(reader.https_report()),
    ))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def _store_digest(store) -> str:
    """SHA-256 over every stored event row of every run, in manifest order.

    Positions are included (they are part of the row tuples), so two
    stores digest equal only if they hold byte-identical event tables.
    """
    digest = hashlib.sha256()
    manifests = sorted(store.run_manifests(),
                       key=lambda m: (m.kind, m.country_code))
    for manifest in manifests:
        digest.update(
            f"{manifest.kind}|{manifest.country_code}"
            f"|{manifest.total_sites}".encode()
        )
        for table in ("visits", "requests", "cookies", "js_calls"):
            for row in store.event_rows_in_range(manifest.run_id, table,
                                                 0, 1 << 60):
                digest.update(repr(row).encode())
    return digest.hexdigest()


def _crawl_targets(study) -> tuple:
    """``(vantage, porn domains, regular domains)`` of a probe's crawl."""
    return (study.vantage_points.point(study.home_country),
            study.corpus_domains(),
            study.universe.reference_regular_corpus())


def crawl_both(store, universe, targets, *, baseline=None) -> None:
    """The probes' crawl: porn at the home vantage, then the regular web,
    streamed into ``store`` without hydrating either log."""
    from repro import Study
    from repro.datastore import stored_crawl

    vantage, domains, regular = targets
    stored_crawl(store, universe, vantage, Study._PORN_KIND, domains,
                 hydrate=False, baseline=baseline)
    stored_crawl(store, universe, vantage, Study._REGULAR_KIND, regular,
                 keep_html=False, hydrate=False, baseline=baseline)


def _settle_heap() -> None:
    # Each timed pass allocates against whatever standing heap the
    # earlier phases left behind, and a full collection scans all of it,
    # so the later a pass runs, the more collector time it pays for the
    # same work.  Freezing the standing heap first makes every pass's GC
    # share proportional to its own allocations.
    gc.collect()
    gc.freeze()


# --------------------------------------------------------------------------
# Memory probes: the streaming configuration against the eager reference.
# --------------------------------------------------------------------------

def run_memory_probe(scale: float) -> dict:
    """The bounded-memory pipeline at one scale: lazy + sharded + cursors.

    Universe specs are minted lazily from packed rows, the crawl runs in
    trim mode (each site's events dropped once checkpointed to its
    shard), and the Table 2/4/6 analyses consume datastore cursors in a
    store-only study: the configuration whose RSS must stay flat as
    scale grows.  Returns per-stage RSS and the table digest for the
    parity check against :func:`run_reference_probe`.
    """
    from repro import Study, UniverseConfig
    from repro.datastore import CrawlStore
    from repro.webgen.builder import build_universe

    stage_rss: dict = {}
    universe = build_universe(UniverseConfig(scale=scale), lazy=True,
                              fetch_cache_size=MEM_PROBE_FETCH_CACHE)
    stage_rss["universe_build"] = _peak_rss_mb()

    with tempfile.TemporaryDirectory(prefix="repro-mem-probe-") as tmp:
        store = CrawlStore(os.path.join(tmp, "probe-store"),
                           shards=MEM_PROBE_SHARDS)
        reader = Study(universe, parallelism=1, store=store,
                       store_only=True)
        targets = _crawl_targets(reader)
        stage_rss["corpus"] = _peak_rss_mb()

        crawl_both(store, universe, targets)
        stage_rss["crawl:all"] = _peak_rss_mb()

        digest = _tables_digest(reader)
        stage_rss["analysis:tables"] = _peak_rss_mb()
        pages = sum(manifest.visits for manifest in store.run_manifests())
    return {
        "scale": scale,
        "pages": pages,
        "stage_rss_mb": stage_rss,
        "peak_rss_mb": _peak_rss_mb(),
        "tables_sha256": digest,
    }


def run_reference_probe(scale: float) -> dict:
    """The parity reference: eager universe, in-memory hydrated study."""
    from repro import Study, UniverseConfig
    from repro.webgen.builder import build_universe

    study = Study(build_universe(UniverseConfig(scale=scale)), parallelism=1)
    return {"scale": scale, "tables_sha256": _tables_digest(study)}


# --------------------------------------------------------------------------
# Delta probe: stored-slice splicing against a full re-crawl.
# --------------------------------------------------------------------------

def _seed_epoch(scale: float, churn: float):
    """The seed epoch's config, lazy universe and crawl targets."""
    from repro import Study, UniverseConfig
    from repro.webgen.builder import build_universe

    config = UniverseConfig(scale=scale, churn=churn)
    universe = build_universe(config, lazy=True)
    return config, universe, _crawl_targets(Study(universe, parallelism=1))


def run_delta_probe(scale: float, churn: float, store_dir: str) -> dict:
    """Delta crawl of an evolved epoch against a full re-crawl.

    Crawls the seed epoch into ``store_dir/epoch0``, evolves one epoch,
    and crawls epoch 1 twice in streaming mode, the delta crawl *first*
    so the full crawl inherits any warm global caches and the reported
    speedup is conservative.  Leaves ``epoch1-delta`` and ``epoch1-full``
    in ``store_dir`` for the gate to re-render, and reports whether their
    event rows are byte-identical, the spliced fraction, the speedup and
    the per-kind jar-digest divergence points.
    """
    from repro import UniverseConfig
    from repro.datastore import CrawlStore
    from repro.webgen.builder import build_universe

    clock = time.perf_counter
    _, base_universe, targets = _seed_epoch(scale, churn)
    base_store = CrawlStore(os.path.join(store_dir, "epoch0"))
    crawl_both(base_store, base_universe, targets)

    evolved_config = UniverseConfig(scale=scale, churn=churn, epoch=1)

    def timed_crawl(name, baseline=None):
        # Only the crawl is timed: each side gets its own evolved
        # universe, built before the clock starts.
        universe = build_universe(evolved_config, lazy=True)
        store = CrawlStore(os.path.join(store_dir, name))
        start = clock()
        crawl_both(store, universe, targets, baseline=baseline)
        return store, clock() - start

    delta_store, delta_seconds = timed_crawl("epoch1-delta",
                                             baseline=base_store)
    full_store, full_seconds = timed_crawl("epoch1-full")

    spliced = crawled = 0
    runs = {}
    for manifest in delta_store.run_manifests():
        stats = (manifest.stats or {}).get("delta") or {}
        spliced += stats.get("spliced", 0)
        crawled += stats.get("crawled", 0)
        runs[manifest.kind] = stats
    return {
        "sites": spliced + crawled,
        "spliced": spliced,
        "crawled": crawled,
        "runs": runs,
        "full_seconds": round(full_seconds, 4),
        "delta_seconds": round(delta_seconds, 4),
        "speedup": round(full_seconds / delta_seconds, 2)
        if delta_seconds else None,
        "stores_identical": _store_digest(full_store)
        == _store_digest(delta_store),
    }


# --------------------------------------------------------------------------
# Incremental-analysis probe: map/merge aggregate cache against monolithic.
# --------------------------------------------------------------------------

def run_incremental_probe(scale: float, churn: float, store_dir: str) -> dict:
    """Cached map/merge sections against a monolithic recompute.

    Crawls the seed epoch into ``store_dir/epoch0``, renders every
    supported section through the aggregate cache (the cold pass maps
    each site once and persists the partials), delta-crawls one evolved
    epoch into ``epoch0-e1``, then renders the epoch-1 sections both
    ways, **incremental first**, so the monolithic pass that follows
    inherits any warm OS page caches and the reported speedup is
    conservative.  Each side is timed as min-of-2 (the epoch pass is
    repeatable because the rows it adds to the cache are rolled back
    between runs), with the standing heap frozen before every timed
    render.  Only churned sites should miss on the epoch-1 pass.
    """
    from repro import Study, UniverseConfig
    from repro.datastore import CrawlStore, aggregates_path
    from repro.webgen.builder import build_universe

    clock = time.perf_counter
    base_config, base_universe, targets = _seed_epoch(scale, churn)

    # Epoch 0: crawl, then warm the aggregate cache (the cold pass).
    base_path = os.path.join(store_dir, "epoch0")
    base_store = CrawlStore(base_path)
    crawl_both(base_store, base_universe, targets)

    warm_study = Study(build_universe(base_config, lazy=True),
                       store=base_store, store_only=True,
                       aggregate_cache=True)
    _settle_heap()
    start = clock()
    render_sections(warm_study)
    warm_seconds = clock() - start
    cold_stats = warm_study.aggregate_cache.stats.as_dict()

    # Epoch 1: delta crawl.  The ``-e1`` suffix routes the epoch store
    # to the *base* store's cache file, exactly as epoch jobs do.
    evolved_config = UniverseConfig(scale=scale, churn=churn, epoch=1)
    epoch_path = base_path + "-e1"
    epoch_store = CrawlStore(epoch_path)
    crawl_both(epoch_store, build_universe(evolved_config, lazy=True),
               targets, baseline=base_store)
    cache_path = aggregates_path(epoch_path)
    assert cache_path == aggregates_path(base_path)

    def epoch_study(*, incremental: bool):
        return Study(build_universe(evolved_config, lazy=True),
                     store=epoch_store, store_only=True,
                     aggregate_cache=incremental or None)

    def timed_render(study):
        _settle_heap()
        start = clock()
        sections = render_sections(study)
        return sections, clock() - start

    # The epoch pass only inserts rows (the churned sites' partials under
    # new content hashes), so deleting every row past the pre-pass rowid
    # high-water mark makes it repeatable.
    with sqlite3.connect(cache_path) as conn:
        high_water = conn.execute(
            "SELECT COALESCE(MAX(rowid), 0) FROM analysis_aggregates"
        ).fetchone()[0]
    incremental_study = epoch_study(incremental=True)
    incremental_sections, incremental_seconds = \
        timed_render(incremental_study)
    epoch_stats = incremental_study.aggregate_cache.stats.as_dict()
    incremental_study.aggregate_cache.close()
    with sqlite3.connect(cache_path) as conn:
        conn.execute("DELETE FROM analysis_aggregates WHERE rowid > ?",
                     (high_water,))

    repeat_study = epoch_study(incremental=True)
    repeat_sections, repeat_seconds = timed_render(repeat_study)
    incremental_seconds = min(incremental_seconds, repeat_seconds)
    assert repeat_sections == incremental_sections
    assert repeat_study.aggregate_cache.stats.as_dict() == epoch_stats

    full_sections, full_seconds = timed_render(epoch_study(incremental=False))
    full_seconds = min(full_seconds,
                       timed_render(epoch_study(incremental=False))[1])

    cache = repeat_study.aggregate_cache
    return {
        "cold": cold_stats,
        "hits": epoch_stats["hits"],
        "misses": epoch_stats["misses"],
        "cached_rows": cache.row_count(),
        "cached_bytes": cache.total_bytes(),
        "warm_seconds": round(warm_seconds, 4),
        "incremental_seconds": round(incremental_seconds, 4),
        "full_seconds": round(full_seconds, 4),
        "speedup": round(full_seconds / incremental_seconds, 2)
        if incremental_seconds else None,
        "tables_identical": incremental_sections == full_sections,
    }


PROBES = {
    "memory": run_memory_probe,
    "reference": run_reference_probe,
    "delta": run_delta_probe,
    "incremental": run_incremental_probe,
}


if __name__ == "__main__":
    print(json.dumps(PROBES[sys.argv[1]](**json.loads(sys.argv[2]))))
