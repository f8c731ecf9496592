"""``make serve-check``: end-to-end gate for the measurement service.

Boots a :class:`repro.service.ReproServer` on an ephemeral port over a
fresh sharded store, submits one scale-0.02 study job over HTTP, and
FAILS unless:

* two subscribers streaming ``GET /jobs/<id>/events`` concurrently —
  one connected before the job runs, one reconnecting mid-run via
  ``?from=`` — receive **identical** event sequences ending in
  ``job_done``;
* ``GET /jobs/<id>/report`` is **byte-identical** to ``python -m repro
  report --store`` run against the same store in a separate process;
* the full report reassembled from the individually served sections
  (``GET /jobs/<id>/tables/<name>`` plus the headered figures) is
  byte-identical to that CLI report, i.e. every served table matches
  its section of the report exactly;
* an epoch-1 delta job's served report is byte-identical to ``python -m
  repro report --store <store>-e1``: epoch jobs serve from their own
  store, not the base one.

Exit status 0 on pass, 1 on any violation.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import threading
import time
import urllib.request

from harness import cli_report

SCALE = 0.02
SEED = 20191021

#: Figure sections are served headerless under ``/figures/``; the report
#: prints them with these headers (see ``repro.reporting.sections``).
FIGURE_HEADERS = {
    "figure3": "== Figure 3: organizations ==\n",
    "figure4": "== Figure 4: cookie syncing ==\n",
}


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url) as resp:
        return resp.read()


def _post_json(url: str, document: dict) -> dict:
    request = urllib.request.Request(
        url, method="POST", data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as resp:
        return json.loads(resp.read())


def _stream(url: str, sink: list) -> None:
    with urllib.request.urlopen(url) as resp:
        for chunk in resp:
            sink.append(chunk)


def _fail(message: str) -> int:
    print(f"serve-check: FAIL — {message}", file=sys.stderr)
    return 1


def main() -> int:
    from repro.reporting import FIGURE_SECTIONS, section_names
    from repro.service import ReproServer
    from repro.service.sse import parse_stream

    with tempfile.TemporaryDirectory(prefix="repro-serve-check-") as tmp:
        store = str(pathlib.Path(tmp) / "store")
        server = ReproServer(store, port=0, workers=1, store_shards=2)
        server.start()
        try:
            print(f"serve-check: serving {server.url} (store {store})")
            job = _post_json(server.url + "/jobs",
                             {"seed": SEED, "scale": SCALE})
            events_url = server.url + f"/jobs/{job['id']}/events"

            # Subscriber 1 rides along from the start; subscriber 2
            # joins once the crawl is underway and replays via ?from=0.
            first: list = []
            thread = threading.Thread(target=_stream,
                                      args=(events_url, first))
            thread.start()
            live = server.manager.get(job["id"]).events
            while len(live) < 10 and not live.finished:
                time.sleep(0.01)
            second: list = []
            _stream(events_url + "?from=0", second)
            thread.join(timeout=600)
            if thread.is_alive():
                return _fail("subscriber 1 never saw the stream close")

            one, two = b"".join(first), b"".join(second)
            if one != two:
                return _fail("concurrent subscribers saw different bytes")
            events = list(parse_stream([one]))
            if events[-1][1] != "job_done":
                return _fail(f"stream ended with {events[-1][1]},"
                             " not job_done")
            print(f"serve-check: {len(events)} events,"
                  " two subscribers identical")

            try:
                expected = cli_report(store)
            except RuntimeError as exc:
                return _fail(str(exc))

            served_report = _get(
                server.url + f"/jobs/{job['id']}/report").decode()
            if served_report != expected:
                return _fail("GET /report differs from `repro report`")

            parts = []
            for name in section_names(geo=False):
                if name in FIGURE_SECTIONS:
                    ascii_art = _get(
                        server.url + f"/jobs/{job['id']}/figures/{name}"
                    ).decode()
                    parts.append(FIGURE_HEADERS[name] + ascii_art[:-1])
                else:
                    text = _get(
                        server.url + f"/jobs/{job['id']}/tables/{name}"
                    ).decode()
                    parts.append(text[:-1])
            reassembled = "\n\n".join(parts) + "\n"
            if reassembled != expected:
                return _fail("report reassembled from served sections"
                             " differs from `repro report`")
            print(f"serve-check: {len(parts)} served sections reassemble"
                  " the report byte-identically")

            epoch_job = _post_json(server.url + "/jobs", {
                "seed": SEED, "scale": SCALE, "epoch": 1, "delta": True})
            events = list(parse_stream([_get(
                server.url + f"/jobs/{epoch_job['id']}/events")]))
            if events[-1][1] != "job_done":
                return _fail(f"epoch-1 job ended with {events[-1][1]}")
            try:
                epoch_expected = cli_report(store + "-e1")
            except RuntimeError as exc:
                return _fail(str(exc))
            served_epoch = _get(
                server.url + f"/jobs/{epoch_job['id']}/report").decode()
            if served_epoch != epoch_expected:
                return _fail("epoch-1 GET /report differs from `repro "
                             "report --store <store>-e1`")
            if epoch_expected == expected:
                return _fail("epoch-1 report equals epoch 0's; the check "
                             "cannot tell the stores apart")
            print("serve-check: epoch-1 delta job serves its own store's"
                  " report byte-identically")
        finally:
            server.stop()
    print("serve-check: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
