"""``make delta-check``: correctness + speedup gate for delta crawls.

Runs the delta probe (see ``harness.run_delta_probe``) in a fresh
subprocess: crawl the seed epoch into a baseline store, evolve the
universe one epoch (default 5% content churn, so well under 10% of
sites change), then crawl epoch 1 twice in streaming mode — once as a
delta crawl splicing provably-unchanged sites out of the baseline, once
as a full re-crawl.  FAILS if any of:

* the two epoch-1 stores are not **byte-identical** (every event row of
  every run, positions included);
* any rendered section diverges between a store-only study over the
  delta store and one over the full store — every table/figure the
  stores can support is rendered from each and diffed byte-for-byte;
* the delta-vs-full **speedup** is below the floor (default 3.0x — the
  regime the splice fast path exists for).

The section set covers everything a single-vantage porn + regular crawl
feeds (Tables 2-6, Figures 3-4, the malware rollup); Tables 1/7/8 need
the inspection pass or extra vantage points the probe doesn't run.

Configuration (environment):

* ``REPRO_DELTA_CHECK_SCALE`` — probe scale, default ``0.2``.
* ``REPRO_DELTA_CHECK_CHURN`` — per-epoch content churn, default ``0.05``.
* ``REPRO_DELTA_CHECK_SPEEDUP`` — speedup floor, default ``3.0``.

Exit status 0 on pass, 1 on any violation.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

from harness import render_sections, run_probe, store_study

DEFAULT_SCALE = 0.2
DEFAULT_CHURN = 0.05
DEFAULT_SPEEDUP = 3.0


def main() -> int:
    scale = float(os.environ.get("REPRO_DELTA_CHECK_SCALE",
                                 str(DEFAULT_SCALE)))
    churn = float(os.environ.get("REPRO_DELTA_CHECK_CHURN",
                                 str(DEFAULT_CHURN)))
    floor = float(os.environ.get("REPRO_DELTA_CHECK_SPEEDUP",
                                 str(DEFAULT_SPEEDUP)))

    store_dir = tempfile.mkdtemp(prefix="repro-delta-check-")
    try:
        print(f"delta-check: scale {scale}, churn {churn}, "
              f"speedup floor {floor}x")
        probe = run_probe("delta", scale=scale, churn=churn,
                          store_dir=store_dir)
        changed = probe["crawled"] / probe["sites"] if probe["sites"] else 0.0
        print(f"  {probe['spliced']}/{probe['sites']} sites spliced "
              f"({changed:.1%} re-crawled), divergence points "
              f"{ {kind: stats.get('divergence_index') for kind, stats in probe['runs'].items()} }")
        print(f"  full {probe['full_seconds']:.2f}s vs delta "
              f"{probe['delta_seconds']:.2f}s -> {probe['speedup']}x")

        failed = False
        if not probe["stores_identical"]:
            print("FAIL: delta store is not byte-identical to the full "
                  "re-crawl store", file=sys.stderr)
            failed = True
        if probe["spliced"] == 0:
            print("FAIL: delta crawl spliced nothing", file=sys.stderr)
            failed = True
        if probe["speedup"] is None or probe["speedup"] < floor:
            print(f"FAIL: delta speedup {probe['speedup']}x is below the "
                  f"{floor}x floor", file=sys.stderr)
            failed = True

        delta_sections = render_sections(
            store_study(os.path.join(store_dir, "epoch1-delta")))
        full_sections = render_sections(
            store_study(os.path.join(store_dir, "epoch1-full")))
        for name in delta_sections:
            if delta_sections[name] == full_sections[name]:
                print(f"  {name}: identical")
            else:
                print(f"FAIL: section {name} diverges between the delta "
                      "and full stores", file=sys.stderr)
                failed = True

        if failed:
            return 1
        print("delta-check: OK")
        return 0
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
