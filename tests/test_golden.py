"""Golden digests of the rendered report: one SHA-256 per section.

The report's sections (Tables 1-8, Figures 1/3/4, the corpus and malware
summaries) are pinned byte for byte at a fixed seed.  A change that
moves a section fails here and prints that section's new digest; a
declared output change copies those digests into
``tests/golden/report_sections.json`` by hand.  The file's scale-0.2
entry is checked by ``make paper-check``
(``benchmarks/test_golden_report.py``), which reuses its session study.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro import Study, UniverseConfig
from repro.reporting import report_sections
from repro.webgen import build_universe

GOLDEN = pathlib.Path(__file__).parent / "golden" / "report_sections.json"

SCALE = 0.02
SEED = 2


def test_report_sections_match_golden_digests():
    study = Study(build_universe(UniverseConfig(seed=SEED, scale=SCALE),
                                 lazy=True), parallelism=2)
    study.run_all(geo=True)
    digests = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in report_sections(study, SCALE, geo=True)}
    golden = json.loads(GOLDEN.read_text())[f"scale={SCALE} seed={SEED} geo"]
    changed = {name: digest for name, digest in digests.items()
               if golden.get(name) != digest}
    missing = sorted(set(golden) - set(digests))
    assert not changed and not missing, (
        f"sections differ from {GOLDEN.name}: new digests "
        f"{json.dumps(changed, indent=2)}; missing sections {missing}")
