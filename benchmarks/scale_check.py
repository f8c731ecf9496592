"""``make scale-check``: memory flatness + parity gate for the streaming path.

Runs the streaming memory probe (lazy universe, sharded store, trim-mode
crawl, cursor-fed analyses — see ``harness.run_memory_probe``) at two
scales in fresh subprocesses and FAILS if either:

* the **crawl-path peak RSS ratio** between the scales exceeds the
  threshold (default 1.3, i.e. doubling the corpus must not come close
  to doubling resident memory through the crawl datapath), or
* the streaming run's Tables 2/4/6 at the smaller scale are not
  byte-identical to an eager-universe, unsharded, in-memory reference.

The enforced RSS sample is the ``ru_maxrss`` high-water taken right
after the crawl stage: it covers the universe, the corpus build, and the
entire crawl-into-shards datapath — the part of the pipeline this
repo's streaming work bounds.  The full-run peak (which additionally
carries the analyses' O(unique-domain) aggregates and the universe
model, both functions of corpus *diversity* rather than page count) is
printed for context but not gated.

Configuration (environment):

* ``REPRO_SCALE_CHECK_SCALES`` — comma-separated pair, default
  ``0.2,0.4`` ("scale-2 vs scale-4" smoke sizes; full scales 2/4 take
  tens of minutes and belong in a nightly run, not ``make``).
* ``REPRO_SCALE_CHECK_RATIO`` — RSS ratio threshold, default ``1.3``.

Exit status 0 on pass, 1 on any violation.
"""

from __future__ import annotations

import os
import sys

from harness import run_probe

DEFAULT_SCALES = (0.2, 0.4)
DEFAULT_RATIO = 1.3


def main() -> int:
    raw_scales = os.environ.get("REPRO_SCALE_CHECK_SCALES", "")
    scales = tuple(float(s) for s in raw_scales.split(",")) if raw_scales \
        else DEFAULT_SCALES
    if len(scales) != 2 or scales[0] >= scales[1]:
        print(f"scale-check: need two increasing scales, got {scales}",
              file=sys.stderr)
        return 1
    threshold = float(os.environ.get("REPRO_SCALE_CHECK_RATIO",
                                     str(DEFAULT_RATIO)))

    small, large = scales
    print(f"scale-check: streaming probes at scales {small} and {large} "
          f"(threshold {threshold}x)")
    probe_small = run_probe("memory", scale=small)
    probe_large = run_probe("memory", scale=large)
    reference = run_probe("reference", scale=small)

    crawl_small = probe_small["stage_rss_mb"]["crawl:all"]
    crawl_large = probe_large["stage_rss_mb"]["crawl:all"]
    crawl_ratio = crawl_large / crawl_small
    full_ratio = probe_large["peak_rss_mb"] / probe_small["peak_rss_mb"]

    print(f"  scale {small}: crawl-path RSS {crawl_small:.1f} MiB, "
          f"full-run peak {probe_small['peak_rss_mb']:.1f} MiB, "
          f"{probe_small['pages']} pages")
    print(f"  scale {large}: crawl-path RSS {crawl_large:.1f} MiB, "
          f"full-run peak {probe_large['peak_rss_mb']:.1f} MiB, "
          f"{probe_large['pages']} pages")
    print(f"  crawl-path RSS ratio: {crawl_ratio:.3f}x "
          f"(full-run, ungated: {full_ratio:.3f}x) for "
          f"{large / small:.1f}x scale")

    failed = False
    if crawl_ratio > threshold:
        print(f"FAIL: crawl-path RSS ratio {crawl_ratio:.3f}x exceeds "
              f"{threshold}x", file=sys.stderr)
        failed = True

    if probe_small["tables_sha256"] == reference["tables_sha256"]:
        print(f"  tables at scale {small}: streaming sharded run is "
              "byte-identical to the unsharded in-memory reference")
    else:
        print(f"FAIL: streaming tables at scale {small} diverge from the "
              f"unsharded reference ({probe_small['tables_sha256'][:12]} != "
              f"{reference['tables_sha256'][:12]})", file=sys.stderr)
        failed = True

    if failed:
        return 1
    print("scale-check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
