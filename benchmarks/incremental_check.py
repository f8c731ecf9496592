"""``make incremental-check``: correctness + speedup gate for the
incremental map/merge analysis engine.

Runs the incremental probe (see ``harness.run_incremental_probe``) in
a fresh subprocess: crawl the seed epoch, render every supported section
through the aggregate cache (the cold pass persists one partial per site
per analysis), delta-crawl one evolved epoch (default 5% content churn),
then render the epoch-1 sections twice — incremental **first**, so the
monolithic pass that follows inherits any warm OS caches and the
reported speedup is conservative.  FAILS if any of:

* any rendered section differs between the incremental and monolithic
  studies — the cache must be byte-invisible, in-probe *and* re-rendered
  here from the stores the probe left behind (an independent process,
  so a stale in-memory structure can't mask a divergence);
* the epoch-1 pass has **zero cache hits** (unchanged sites must merge
  from epoch-0 partials) or zero misses (churned sites must re-map);
* the incremental-vs-monolithic **speedup** is below the floor (default
  3.0x — at 5% churn, ~95% of per-site maps are skipped).

The section set covers everything a single-vantage porn + regular crawl
feeds (Tables 2-6, Figures 3-4, the malware rollup); Tables 1/7/8 need
the inspection pass or extra vantage points the probe doesn't run.

Configuration (environment):

* ``REPRO_INCREMENTAL_CHECK_SCALE`` — probe scale, default ``0.2``.
* ``REPRO_INCREMENTAL_CHECK_CHURN`` — per-epoch churn, default ``0.05``.
* ``REPRO_INCREMENTAL_CHECK_SPEEDUP`` — speedup floor, default ``3.0``.

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
    scale = float(os.environ.get("REPRO_INCREMENTAL_CHECK_SCALE",
                                 str(DEFAULT_SCALE)))
    churn = float(os.environ.get("REPRO_INCREMENTAL_CHECK_CHURN",
                                 str(DEFAULT_CHURN)))
    floor = float(os.environ.get("REPRO_INCREMENTAL_CHECK_SPEEDUP",
                                 str(DEFAULT_SPEEDUP)))

    store_dir = tempfile.mkdtemp(prefix="repro-incremental-check-")
    try:
        print(f"incremental-check: scale {scale}, churn {churn}, "
              f"speedup floor {floor}x")
        probe = run_probe("incremental", scale=scale, churn=churn,
                          store_dir=store_dir)
        print(f"  cold pass: {probe['cold']['misses']} partials mapped, "
              f"{probe['cached_rows']} rows "
              f"({probe['cached_bytes'] / 1024:.0f} KiB) cached "
              f"in {probe['warm_seconds']:.2f}s")
        print(f"  epoch pass: {probe['hits']} hits / {probe['misses']} "
              f"misses; monolithic {probe['full_seconds']:.2f}s vs "
              f"incremental {probe['incremental_seconds']:.2f}s "
              f"-> {probe['speedup']}x")

        failed = False
        if not probe["tables_identical"]:
            print("FAIL: incremental sections diverge from the "
                  "monolithic reference in-probe", file=sys.stderr)
            failed = True
        if probe["hits"] == 0:
            print("FAIL: epoch pass hit nothing — unchanged sites must "
                  "merge from cached partials", file=sys.stderr)
            failed = True
        if probe["misses"] == 0:
            print("FAIL: epoch pass missed nothing — churned sites must "
                  "be re-mapped", file=sys.stderr)
            failed = True
        if probe["speedup"] is None or probe["speedup"] < floor:
            print(f"FAIL: incremental speedup {probe['speedup']}x is "
                  f"below the {floor}x floor", file=sys.stderr)
            failed = True

        # Independent re-render: a fresh process over the stores the
        # probe left behind, through the now-warm cache vs. monolithic.
        epoch_store = os.path.join(store_dir, "epoch0-e1")
        incremental_study = store_study(epoch_store, incremental=True)
        incremental_sections = render_sections(incremental_study)
        monolithic_sections = render_sections(store_study(epoch_store))
        stats = incremental_study.aggregate_cache.stats.as_dict()
        if stats["misses"] != 0:
            print(f"FAIL: warm re-render missed {stats['misses']} "
                  "partials — every epoch-1 partial should be cached by "
                  "now", file=sys.stderr)
            failed = True
        for name in incremental_sections:
            if incremental_sections[name] == monolithic_sections[name]:
                print(f"  {name}: identical")
            else:
                print(f"FAIL: section {name} diverges between the "
                      "incremental and monolithic renders",
                      file=sys.stderr)
                failed = True

        if failed:
            return 1
        print("incremental-check: OK")
        return 0
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
