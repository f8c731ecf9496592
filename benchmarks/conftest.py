"""Shared benchmark fixtures.

The harness builds one synthetic universe and runs the full study once per
session; each benchmark then times the *analysis* step for its table or
figure and prints a paper-vs-measured comparison.  At the default scale
the comparison is also written to ``benchmarks/results/<name>.txt``, the
checked-in record of the paper-scale run.

``REPRO_BENCH_SCALE`` (default 1.0 = the paper's 6,843-site corpus)
shrinks the universe for quick runs, which only print, e.g.::

    REPRO_BENCH_SCALE=0.2 pytest benchmarks/ --benchmark-disable
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro import Study, UniverseConfig
from repro.webgen.config import CalibrationTargets

#: The scale ``benchmarks/results/`` records: the paper's corpus size.
RESULTS_SCALE = 1.0

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", str(RESULTS_SCALE)))

_RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def study() -> Study:
    return Study.build(UniverseConfig(scale=BENCH_SCALE))


@pytest.fixture(scope="session")
def paper() -> CalibrationTargets:
    return CalibrationTargets()


@pytest.fixture(scope="session")
def scale() -> float:
    return BENCH_SCALE


class Reporter:
    """Collects paper-vs-measured rows and emits them."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines = [f"=== {name} (scale={BENCH_SCALE}) ==="]

    def row(self, metric: str, paper_value, measured_value) -> None:
        self.lines.append(f"{metric:<52} paper={paper_value!s:<14} "
                          f"measured={measured_value!s}")

    def text(self, block: str) -> None:
        self.lines.append(block)

    def emit(self) -> None:
        output = "\n".join(str(line) for line in self.lines)
        print("\n" + output)
        if BENCH_SCALE != RESULTS_SCALE:
            return
        _RESULTS_DIR.mkdir(exist_ok=True)
        path = _RESULTS_DIR / f"{self.name}.txt"
        path.write_text(output + "\n")


@pytest.fixture()
def reporter(request):
    instance = Reporter(request.node.name.replace("test_", "", 1))
    yield instance
    instance.emit()


def scaled(value: int, *, minimum: int = 1) -> int:
    """Scale a paper count to the benchmark corpus size."""
    return max(minimum, round(value * BENCH_SCALE))
