"""The four workloads: set-up, one operation, and the output check.

Each operation drives the pipeline through the entry points a user
calls (``build_universe`` + ``Study`` + ``full_report``, the stores and
the aggregate cache, or the ``repro serve`` HTTP API) and returns its
output text plus a dict of figures it measured.  With a
:class:`~spans.Recorder` the same operation also installs span wrappers
on the objects it creates; without one it runs exactly as a user would.

``fixed_order=True`` is the traced variant: parallelism 1 and every
``core`` accessor called in :data:`spans.CORE_ACCESSORS` order before
the workload's own steps, so per-accessor self time is attributed the
same way on every run.  The benchmark times that variant both with and
without the recorder to measure the tracing overhead.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import statistics
from contextlib import ExitStack, contextmanager
from typing import Dict, List, Optional, Tuple

from spans import (
    CORE_ACCESSORS,
    ProgressTracer,
    Recorder,
    instrument_aggregates,
    instrument_store,
    instrument_study,
    perf,
)

from repro import Study, UniverseConfig
from repro.datastore import AggregateStore, CrawlStore
from repro.html.parser import parse_cache_stats
from repro.reporting import FIGURE_SECTIONS, full_report, section_names
from repro.service import ReproServer
from repro.service.sse import parse_stream
from repro.text.sparse import engine_stats
from repro.webgen.builder import build_universe

#: Corpus scale of every workload (the paper's 6,843 sites x 0.02).
SCALE = 0.02
#: Per-epoch content churn of the longitudinal step.
CHURN = 0.05
#: Universes one ``epoch_step`` operation steps.  How many sites an
#: epoch changes depends on the universe's seed (a tracker's death or
#: consolidation touches every site that embeds it), so each operation
#: steps several independent universes to average those draws.
EPOCH_UNIVERSES = 3

#: Figure sections are served headerless; the report prints these headers.
FIGURE_HEADERS = {
    "figure3": "== Figure 3: organizations ==\n",
    "figure4": "== Figure 4: cookie syncing ==\n",
}


@contextmanager
def span(rec: Optional[Recorder], layer: str, name: str):
    if rec is None:
        yield
        return
    opened = rec.open(layer, name)
    try:
        yield
    finally:
        rec.close(opened)


@contextmanager
def timed_op(rec: Optional[Recorder], fig: Dict[str, float]):
    """Time one operation as ``op_s``; traced, also its root ``op`` span,
    whose self time is the wall time no layer claims."""
    root = None
    if rec is not None:
        rec.active = True
        root = rec.open("op", "op")
    start = perf()
    try:
        yield
    finally:
        fig["op_s"] = perf() - start
        if root is not None:
            rec.close(root)
            rec.active = False


def _counters() -> Tuple[Tuple[int, int], Dict[str, int]]:
    """Process-global parse-cache and similarity-engine counters."""
    parse = parse_cache_stats()
    return (parse.hits, parse.misses), engine_stats().snapshot()


def _counter_figures(before, universes) -> Dict[str, float]:
    """Diff of the process-global counters around one operation, plus the
    per-universe fetch caches (fresh for every operation)."""
    (hits0, misses0), engine0 = before
    (hits1, misses1), engine1 = _counters()
    hits, misses = hits1 - hits0, misses1 - misses0
    fig = {
        "html.parse_cache.hit_rate": hits / (hits + misses)
        if hits + misses else 0.0,
        "text.engine.candidate_pairs":
            engine1["candidate_pairs"] - engine0["candidate_pairs"],
        "text.engine.nonzeros": engine1["nonzeros"] - engine0["nonzeros"],
    }
    stats = [universe.fetch_cache.stats for universe in universes]
    hits = sum(s.hits for s in stats)
    lookups = hits + sum(s.misses for s in stats)
    fig["webgen.fetch_cache.hit_rate"] = hits / lookups if lookups else 0.0
    fig["webgen.fetch_cache.evictions"] = sum(s.evictions for s in stats)
    return fig


def _disk_bytes(path: str) -> int:
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(path, name))
                   for name in os.listdir(path))
    return sum(os.path.getsize(path + suffix)
               for suffix in ("", "-wal", "-shm")
               if os.path.exists(path + suffix))


def _store_figures(stores: List[CrawlStore]) -> Dict[str, float]:
    """What the stores hold: pages and events written, bytes per page,
    and the delta crawls' spliced fraction."""
    runs = [run for store in stores for run in store.run_manifests()]
    visits = sum(run.visits for run in runs)
    size = sum(_disk_bytes(store.path) for store in stores)
    fig = {
        "datastore.bytes_per_page": size / visits if visits else 0.0,
        "crawler.pages": visits,
        "crawler.requests": sum(run.requests for run in runs),
        "js.calls": sum(run.js_calls for run in runs),
        "net.cookies": sum(run.cookies for run in runs),
    }
    spliced = crawled = 0
    for run in runs:
        delta = (run.stats or {}).get("delta")
        if delta:
            spliced += delta["spliced"]
            crawled += delta["crawled"]
    if spliced + crawled:
        fig["datastore.splice.spliced_frac"] = spliced / (spliced + crawled)
    return fig


def _io_figures(stores: List[CrawlStore]) -> Dict[str, float]:
    return {
        "datastore.io.opens": sum(s.io_stats["opens"] for s in stores),
        "datastore.io.scans": sum(s.io_stats["scans"] for s in stores),
    }


def _call_fixed_order(study: Study) -> None:
    """Every core accessor, in :data:`CORE_ACCESSORS` order."""
    study.corpus()
    for name in CORE_ACCESSORS:
        if name == "banners":
            for country in Study._BANNER_COUNTRIES:
                study.banners(country)
        else:
            getattr(study, name)()


def _time_crawls(study: Study, fig: Dict[str, float]) -> None:
    """Time the parallel crawl fan-out (``prefetch_crawls``) of ``run_all``."""
    prefetch = study.prefetch_crawls

    def timed(*args, **kwargs):
        start = perf()
        try:
            return prefetch(*args, **kwargs)
        finally:
            fig["crawl_wall_s"] = fig.get("crawl_wall_s", 0.0) \
                + perf() - start
    study.prefetch_crawls = timed


class Workload:
    """One workload: ``setup`` once (or a few times), then ``op`` in a loop.

    ``op`` returns ``(output, figures)``; :meth:`check` compares the
    output byte for byte with the reference rendered in set-up.
    """

    name = ""

    def __init__(self, work: str, seed: int, nproc: int) -> None:
        self.work = work
        self.seed = seed
        self.nproc = nproc
        self.reference: Optional[str] = None
        self.setup_figures: Dict[str, float] = {}
        self._ops = 0

    def fresh_path(self, stem: str) -> str:
        self._ops += 1
        return os.path.join(self.work, f"{stem}-{self._ops}")

    def setup(self) -> None:
        raise NotImplementedError

    def set_up(self, repeats: int) -> List[float]:
        """Set up ``repeats`` times from nothing; returns each set-up's
        wall time (the last set-up is the one the operations use)."""
        times = []
        for _ in range(repeats):
            self.cleanup(prefix="")
            start = perf()
            self.setup()
            times.append(perf() - start)
        return times

    def op(self, rec: Optional[Recorder] = None, *,
           fixed_order: bool = False) -> Tuple[str, Dict[str, float]]:
        raise NotImplementedError

    def check(self, output: str, fig: Dict[str, float]) -> bool:
        return output == self.reference

    def cleanup(self, prefix: str = "op-") -> None:
        """Remove per-operation files (called outside the timer); with
        ``prefix=""``, everything set-up made too."""
        for name in os.listdir(self.work):
            if name.startswith(prefix):
                path = os.path.join(self.work, name)
                if os.path.isdir(path):
                    shutil.rmtree(path)
                else:
                    os.remove(path)


def _run_study(universe, rec: Optional[Recorder], *, store: CrawlStore,
               parallelism: int, fixed_order: bool,
               baseline: Optional[CrawlStore] = None,
               cache: Optional[AggregateStore] = None,
               fig: Dict[str, float]) -> str:
    """``repro study --geo --store ...`` over an already-built universe."""
    tracer = ProgressTracer(rec) if rec is not None else None
    study = Study(universe, store=store, baseline_store=baseline,
                  aggregate_cache=cache, parallelism=parallelism,
                  progress=tracer)
    if rec is not None:
        instrument_study(rec, study)
    _time_crawls(study, fig)
    if fixed_order:
        _call_fixed_order(study)
    else:
        # Sanitize the corpus before the crawl fan-out so the timed crawl
        # phase holds crawls only (run_all would compute it first anyway).
        study.corpus()
    study.run_all(geo=True)
    with span(rec, "reporting", "reporting.render"):
        output = full_report(study, SCALE, geo=True)
    if tracer is not None:
        fig.setdefault("browser.site_ms", []).extend(tracer.site_ms)
    return output


class StudyCold(Workload):
    """``repro study --geo --store <fresh>``: the whole paper from nothing."""

    name = "study_cold"

    def config(self) -> UniverseConfig:
        return UniverseConfig(seed=self.seed, scale=SCALE)

    def setup(self) -> None:
        self.reference, _ = self.op()
        self.cleanup()

    def op(self, rec=None, *, fixed_order=False):
        parallelism = 1 if fixed_order else self.nproc
        path = self.fresh_path("op-store")
        fig: Dict[str, float] = {}
        before = _counters()
        with timed_op(rec, fig):
            with span(rec, "webgen", "webgen.build"):
                universe = build_universe(self.config(), lazy=True)
            store = CrawlStore(path)
            if rec is not None:
                instrument_store(rec, store)
            output = _run_study(universe, rec, store=store,
                                parallelism=parallelism,
                                fixed_order=fixed_order, fig=fig)
        fig.update(_counter_figures(before, [universe]))
        fig.update(_store_figures([store]))
        fig.update(_io_figures([store]))
        store.close()
        fig["study_s"] = fig["op_s"]
        if "crawl_wall_s" in fig:
            fig["crawl_pages_per_s"] = fig["crawler.pages"] \
                / fig["crawl_wall_s"]
        return output, fig


class EpochStep(Workload):
    """``repro study --epoch 1 --since <epoch0> --incremental --geo``.

    One operation takes that 0->1 step in each of
    :data:`EPOCH_UNIVERSES` universes, whose seeds derive from the
    workload's seed.  Every operation repeats the same steps into fresh
    epoch-1 stores with fresh copies of the warmed aggregate caches
    (copied before the timer starts), so later operations do no more
    work than earlier ones.
    """

    name = "epoch_step"

    def __init__(self, work: str, seed: int, nproc: int) -> None:
        super().__init__(work, seed, nproc)
        self.seeds = [seed * EPOCH_UNIVERSES + index
                      for index in range(EPOCH_UNIVERSES)]

    def config(self, seed: int, epoch: int) -> UniverseConfig:
        return UniverseConfig(seed=seed, scale=SCALE, epoch=epoch,
                              churn=CHURN)

    def paths(self, seed: int) -> Tuple[str, str]:
        """The epoch-0 store and its aggregate cache."""
        stem = os.path.join(self.work, f"u{seed}-epoch0")
        return stem + ".sqlite", stem + ".aggregates"

    def set_up(self, repeats: int) -> List[float]:
        """Set up each universe once, whatever ``repeats`` says: what a
        user sets up (the epoch-0 store and the cold cache fill) is
        timed per universe, so there are :data:`EPOCH_UNIVERSES` set-up
        times.  The references are rendered after, untimed."""
        self.cleanup(prefix="")
        times, fills = [], []
        for seed in self.seeds:
            start = perf()
            fills.append(self.set_up_universe(seed))
            times.append(perf() - start)
        self.setup_figures["aggregates.cold_fill_s"] = statistics.median(
            fills)
        self.reference = tuple(self.render_reference(seed)
                               for seed in self.seeds)
        return times

    def set_up_universe(self, seed: int) -> float:
        """Fill the epoch-0 store and its aggregate cache; returns the
        cold fill's time."""
        base_path, cache_path = self.paths(seed)
        study = Study(build_universe(self.config(seed, 0), lazy=True),
                      store=base_path, parallelism=self.nproc)
        study.run_all(geo=True)
        study.store.close()
        # Cold fill: one incremental store-only pass maps every site.
        start = perf()
        cache = AggregateStore(cache_path)
        warm = Study(build_universe(self.config(seed, 0), lazy=True),
                     store=base_path, store_only=True,
                     aggregate_cache=cache)
        full_report(warm, SCALE, geo=True)
        warm.store.close()
        cache.close()
        return perf() - start

    def render_reference(self, seed: int) -> str:
        """A full (non-delta) epoch-1 crawl, rendered store-only without
        the aggregate cache."""
        path = os.path.join(self.work, f"reference-u{seed}-e1.sqlite")
        full = Study(build_universe(self.config(seed, 1), lazy=True),
                     store=path, parallelism=self.nproc)
        full.run_all(geo=True)
        full.store.close()
        stored = Study(build_universe(self.config(seed, 1), lazy=True),
                       store=path, store_only=True)
        output = full_report(stored, SCALE, geo=True)
        stored.store.close()
        return output

    def op(self, rec=None, *, fixed_order=False):
        parallelism = 1 if fixed_order else self.nproc
        stem = self.fresh_path("op-store")
        cache_copies = []
        for seed in self.seeds:
            cache_copy = f"{stem}-u{seed}-e1.aggregates"
            shutil.copyfile(self.paths(seed)[1], cache_copy)
            cache_copies.append(cache_copy)
        fig: Dict[str, float] = {}
        universes, outputs, handles = [], [], []
        before = _counters()
        with timed_op(rec, fig):
            for seed, cache_copy in zip(self.seeds, cache_copies):
                with span(rec, "webgen", "webgen.build"):
                    universe = build_universe(self.config(seed, 1),
                                              lazy=True)
                baseline = CrawlStore(self.paths(seed)[0])
                store = CrawlStore(f"{stem}-u{seed}-e1")
                cache = AggregateStore(cache_copy)
                if rec is not None:
                    instrument_store(rec, baseline)
                    instrument_store(rec, store)
                    instrument_aggregates(rec, cache)
                outputs.append(_run_study(
                    universe, rec, store=store, parallelism=parallelism,
                    fixed_order=fixed_order, baseline=baseline,
                    cache=cache, fig=fig))
                universes.append(universe)
                handles.append((baseline, store, cache))
        fig.update(_counter_figures(before, universes))
        fig.update(_store_figures([store for _, store, _ in handles]))
        fig.update(_io_figures([s for baseline, store, _ in handles
                                for s in (baseline, store)]))
        caches = [cache for _, _, cache in handles]
        hits = sum(cache.stats.hits for cache in caches)
        lookups = sum(cache.stats.lookups for cache in caches)
        fig.update({
            "aggregates.hits": hits,
            "aggregates.misses": sum(c.stats.misses for c in caches),
            "aggregates.corrupt": sum(c.stats.corrupt for c in caches),
            "aggregates.hit_rate": hits / lookups if lookups else 0.0,
            "aggregates.bytes": sum(c.total_bytes() for c in caches),
        })
        for handle in handles:
            for part in handle:
                part.close()
        fig["epoch_step_s"] = fig["op_s"]
        return tuple(outputs), fig


class _Client:
    """One keep-alive HTTP connection to the service."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> bytes:
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        payload = response.read()
        if response.status >= 300:
            raise RuntimeError(f"{method} {path}: {response.status} "
                               f"{payload[:200]!r}")
        return payload

    def close(self) -> None:
        self.conn.close()


class Serve(Workload):
    """``repro serve``: one client boots the service on a fresh store,
    submits a study job, streams its events to ``job_done`` on a second
    connection, then fetches the report and every section."""

    name = "serve"

    def setup(self) -> None:
        path = os.path.join(self.work, "served.sqlite")
        output, fig = self._session(path, None)
        store = CrawlStore(path)
        study = Study(build_universe(store.stored_config(), lazy=True),
                      store=store, store_only=True)
        self.reference = full_report(study, SCALE, geo=False)
        store.close()
        if not self.check(output, fig):
            raise RuntimeError("served report differs from full_report "
                               "over the served store")

    def check(self, output, fig):
        # Every served section must also reassemble the served report.
        return output == self.reference and fig["sections_match"]

    def op(self, rec=None, *, fixed_order=False):
        return self._session(self.fresh_path("op-store"), rec)

    def _session(self, path: str, rec: Optional[Recorder]):
        fig: Dict[str, float] = {}
        # The timer stops when the client has the last section; shutting
        # the server down is not part of what the client waits for (and
        # ``shutdown`` waits for the listener's 0.5 s poll tick).
        with ExitStack() as cleanup:
            with timed_op(rec, fig):
                with span(rec, "service", "service.boot"):
                    server = ReproServer(path, port=0, workers=1)
                    cleanup.callback(server.stop)
                    if rec is not None:
                        self._instrument(rec, server)
                    server.start()
                client = _Client("127.0.0.1", server.port)
                cleanup.callback(client.close)
                stream = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=120)
                cleanup.callback(stream.close)
                report, parts = self._client_session(client, stream, rec,
                                                     fig)
        fig.update(_io_figures([server.store]))
        with CrawlStore(path) as store:
            fig.update(_store_figures([store]))
        fig["sections_match"] = "\n\n".join(parts) + "\n" == report
        return report, fig

    @staticmethod
    def _instrument(rec: Recorder, server: ReproServer) -> None:
        """Wrap the server's store and the result study it renders from."""
        instrument_store(rec, server.store)
        result_study = server.api.result_study
        traced = []

        def traced_result_study():
            study = result_study()
            if study not in traced:
                instrument_study(rec, study)
                traced.append(study)
            return study
        server.api.result_study = traced_result_study

    def _client_session(self, client: "_Client", stream, rec, fig):
        body = json.dumps({"seed": self.seed, "scale": SCALE}).encode()
        with span(rec, "service", "service.submit"):
            submitted = perf()
            job = json.loads(client.request("POST", "/jobs", body))
            fig["service.submit_ms"] = (perf() - submitted) * 1000.0
        state = self._stream(stream, job["id"], rec, fig, submitted)
        if state != "job_done":
            raise RuntimeError(f"job ended with {state}")
        fig["job_s"] = perf() - submitted
        with span(rec, "service", "service.report"):
            fetched = perf()
            report = client.request(
                "GET", f"/jobs/{job['id']}/report").decode()
            fig["result_s"] = perf() - fetched
        parts, section_ms = [], []
        for name in section_names(geo=False):
            family = "figures" if name in FIGURE_SECTIONS else "tables"
            with span(rec, "service", "service.section"):
                fetched = perf()
                text = client.request(
                    "GET", f"/jobs/{job['id']}/{family}/{name}").decode()
                section_ms.append((perf() - fetched) * 1000.0)
            parts.append(FIGURE_HEADERS.get(name, "") + text[:-1])
        fig["service.section_ms"] = section_ms
        return report, parts

    @staticmethod
    def _stream(conn, job_id: str, rec: Optional[Recorder],
                fig: Dict[str, float], submitted: float) -> Optional[str]:
        """Read the job's SSE stream to its closing event; traced, its
        progress events become crawler/browser/core spans."""
        tracer = ProgressTracer(rec) if rec is not None else None
        conn.request("GET", f"/jobs/{job_id}/events?from=0")
        response = conn.getresponse()
        events = 0
        state = None
        with span(rec, "service", "service.stream"):
            opened = perf()
            for _, kind, payload in parse_stream(
                    iter(response.readline, b"")):
                events += 1
                if events == 1:
                    fig["service.first_event_ms"] = \
                        (perf() - submitted) * 1000.0
                if tracer is not None:
                    tracer(kind, **payload)
                if kind in ("job_done", "job_failed", "job_cancelled"):
                    state = kind
                    break
            fig["sse_events_per_s"] = events / (perf() - opened)
        response.close()
        fig["service.events"] = events
        if tracer is not None:
            fig["browser.site_ms"] = tracer.site_ms
        return state


WORKLOADS = {cls.name: cls for cls in (StudyCold, EpochStep, Serve)}
