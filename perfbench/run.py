"""The pipeline benchmark: one workload, measured, checked, reported.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload study_cold --seed 1 --seconds 20 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):
``study_cold``, ``epoch_step`` and ``serve``.  Each is a
closed loop from this one process at the corpus scale fixed in
:mod:`workloads`; the seed picks the synthetic universe.

``--trace 0`` times the workload the way a user runs it: set-up a few
times (``setup_s`` is their median), then operations back to back for
``--seconds`` (``op_s`` is their median).  ``--trace 1`` sets up once and
repeats a cycle of three operations: the user's operation, the traced
variant without spans, and the traced variant with spans; per-layer
figures are medians over the cycles and ``trace_overhead_s`` is the
traced variant's median with spans minus without.  The traced run
writes its spans as Chrome trace events (open them in Perfetto) to
``.perfbench/traces/<workload>-seed<seed>.json``.

Every operation's output is compared byte for byte with a reference
rendered in set-up; a mismatch or an exception counts as a failed
operation.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import difflib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Operations measured at least, however long they take.
MIN_OPS = 3

LAYERS = ("webgen", "crawler", "browser", "datastore", "aggregates", "core",
          "reporting", "service")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _percentile(values, pct: int) -> float:
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_record(args, workloads_module) -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": workloads_module.SCALE,
    }


def _print_difference(output, reference) -> None:
    """The first lines where an output differs from its reference."""
    if not isinstance(output, tuple):
        output, reference = (output,), (reference,)
    for got, want in zip(output, reference):
        diff = difflib.unified_diff(want.splitlines(), got.splitlines(),
                                    "reference", "output", lineterm="")
        print("\n".join(list(diff)[:40]), file=sys.stderr)


class Runner:
    def __init__(self, workload, seconds: float) -> None:
        self.workload = workload
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0

    def run_op(self, **kwargs):
        """One operation, checked; returns its figures (``{}`` on error)."""
        gc.collect()  # every operation starts from a collected heap
        self.attempted += 1
        try:
            output, fig = self.workload.op(**kwargs)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return {}
        finally:
            self.workload.cleanup()
        if not self.workload.check(output, fig):
            print(f"{self.workload.name}: output differs from the "
                  "reference", file=sys.stderr)
            _print_difference(output, self.workload.reference)
            self.failed += 1
        return fig

    def timed_loop(self, body) -> None:
        """Call ``body`` until ``seconds`` have passed (and it ran at
        least :data:`MIN_OPS` times, counting operations)."""
        from spans import perf

        deadline = perf() + self.seconds
        while True:
            body()
            if perf() >= deadline and self.attempted >= MIN_OPS:
                return


def measure(runner: Runner, setup_s) -> dict:
    """``--trace 0``: the end-to-end metrics."""
    op_s = []

    def body():
        fig = runner.run_op()
        if "op_s" in fig:
            op_s.append(fig["op_s"])
    runner.timed_loop(body)
    return {"op_s": _median(op_s), "setup_s": _median(setup_s),
            "peak_rss_mb": _peak_rss_mb()}


def trace(runner: Runner, trace_path: str, host: dict) -> dict:
    """``--trace 1``: the per-layer metrics."""
    from spans import CORE_ACCESSORS, Recorder

    user, plain, traced = [], [], []
    spans = []

    def body():
        user.append(runner.run_op())
        plain.append(runner.run_op(fixed_order=True))
        rec = Recorder()
        with rec:
            fig = runner.run_op(rec=rec, fixed_order=True)
        traced.append((rec, fig))
        for event in rec.events:
            spans.append(dict(event, pid=len(traced)))
    runner.timed_loop(body)

    def med(key, figs):
        return _median(fig[key] for fig in figs if key in fig)

    per_op = []
    for rec, fig in traced:
        if "op_s" not in fig:
            continue
        totals = rec.name_total_s
        layer = {f"{name}.self_s": rec.self_s.get(name, 0.0)
                 for name in LAYERS}
        layer["unattributed_s"] = rec.self_s.get("op", 0.0)
        layer["webgen.build_s"] = sum(totals.get("webgen.build", ()))
        layer["crawler.corpus_s"] = sum(totals.get("crawler.corpus", ()))
        layer["crawler.inspections_s"] = sum(
            totals.get("crawler.inspections", ()))
        serial_crawl = 0.0
        for name, durations in totals.items():
            if name.startswith("crawler.run."):
                key = "crawler.run_s." + name[len("crawler.run."):]
                layer[key] = sum(durations)
                serial_crawl += layer[key]
        layer["serial_crawl_s"] = serial_crawl
        site_ms = fig.get("browser.site_ms", [])
        layer["browser.site_ms.p50"] = _percentile(site_ms, 50)
        layer["browser.site_ms.p99"] = _percentile(site_ms, 99)
        checkpoints = totals.get("datastore.checkpoint", [])
        layer["datastore.checkpoint_ms.p50"] = _percentile(
            [s * 1000.0 for s in checkpoints], 50)
        layer["datastore.checkpoint_ms.p99"] = _percentile(
            [s * 1000.0 for s in checkpoints], 99)
        layer["datastore.checkpoint_ms.sum_s"] = sum(checkpoints)
        layer["datastore.load_s"] = sum(
            seconds for name, seconds in rec.name_self_s.items()
            if name.startswith("datastore.read."))
        layer["aggregates.get_many_s"] = sum(
            totals.get("aggregates.get_many", ()))
        for name in CORE_ACCESSORS:
            layer[f"core.{name}_s"] = rec.name_layer_s.get(f"core.{name}",
                                                           0.0)
        layer["reporting.render_s"] = sum(
            totals.get("reporting.render", ()))
        layer["service.section_ms.p50"] = _percentile(
            fig.get("service.section_ms", []), 50)
        layer["py.gc_s"] = rec.gc_s
        layer["py.gc_collections"] = rec.gc_collections
        for key, value in fig.items():
            if isinstance(value, (int, float)) and key not in layer:
                layer[key] = value
        per_op.append(layer)

    metrics = {key: med(key, per_op) for op in per_op for key in op}
    metrics["trace_overhead_s"] = med("op_s", per_op) - med("op_s", plain)
    for key in ("study_s", "crawl_pages_per_s", "epoch_step_s",
                "job_s", "result_s", "sse_events_per_s"):
        metrics[key] = med(key, user)
    crawl_wall = med("crawl_wall_s", user)
    metrics["crawler.pool_speedup"] = (
        metrics.get("serial_crawl_s", 0.0) / crawl_wall if crawl_wall else 0.0)
    metrics.update(runner.workload.setup_figures)
    metrics["error_rate"] = runner.failed / runner.attempted

    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w") as handle:
        json.dump({"traceEvents": spans, "metadata": host}, handle)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no pipeline sources under {SRC}",
              file=sys.stderr)
        return 2

    # Everything the run writes stays inside the checkout.
    base = os.path.join(ROOT, ".perfbench")
    work = os.path.join(base, f"work-{os.getpid()}")
    os.makedirs(work)
    for variable in ("TMPDIR", "SQLITE_TMPDIR"):
        os.environ[variable] = work
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import workloads

        host = host_record(args, workloads)
        nproc = len(os.sched_getaffinity(0))
        workload = workloads.WORKLOADS[args.workload](work, args.seed,
                                                      nproc)
        setup_s = workload.set_up(1 if args.trace else SETUP_REPEATS)
        runner = Runner(workload, args.seconds)
        if args.trace:
            trace_path = os.path.join(
                base, "traces", f"{args.workload}-seed{args.seed}.json")
            values = trace(runner, trace_path, host)
        else:
            values = measure(runner, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for metric in wanted:
        metrics[metric["name"]] = {
            "value": float(values.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
