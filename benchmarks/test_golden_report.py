"""Golden digests of the rendered report at the benchmark scale.

Checks every section of the session study's report against the SHA-256
digests in ``tests/golden/report_sections.json`` (see
``tests/test_golden.py``); skipped at scales with no golden entry.
"""

import hashlib
import json
import pathlib

import pytest

from repro.reporting import report_sections

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" \
    / "golden" / "report_sections.json"


def test_golden_report(study, scale):
    key = f"scale={scale} seed={study.universe.config.seed} geo"
    golden = json.loads(GOLDEN.read_text()).get(key)
    if golden is None:
        pytest.skip(f"no golden digests for {key}")
    digests = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in report_sections(study, scale, geo=True)}
    changed = {name: digest for name, digest in digests.items()
               if golden.get(name) != digest}
    missing = sorted(set(golden) - set(digests))
    assert not changed and not missing, (
        f"sections differ from {GOLDEN.name}[{key!r}]: new digests "
        f"{json.dumps(changed, indent=2)}; missing sections {missing}")
