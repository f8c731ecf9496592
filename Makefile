PYTHON ?= python
SCALE ?= 0.2
export PYTHONPATH := src

.PHONY: test paper-check profile store-check parallel-check \
	scale-check serve-check delta-check incremental-check

## Run the tier-1 test suite.
test:
	$(PYTHON) -m pytest -x -q

## Paper-shape gate (used by CI): the paper's claims asserted at scale
## 0.2 (Tables 1-8, Figures 1/3/4, ablations), plus the scale-0.2 golden
## digests of the rendered report in tests/golden/.
paper-check:
	REPRO_BENCH_SCALE=0.2 $(PYTHON) -m pytest benchmarks/ \
		--benchmark-disable -q

## Memory-flatness gate: run the streaming probe (lazy universe, sharded
## store, trim-mode crawl, cursor analyses) at two scales and fail if the
## crawl-path peak RSS ratio exceeds 1.3x or the tables diverge from an
## unsharded in-memory reference.  Scales/threshold via
## REPRO_SCALE_CHECK_SCALES / REPRO_SCALE_CHECK_RATIO.
scale-check:
	$(PYTHON) benchmarks/scale_check.py

## Scheduler identity check (used by CI): the rendered study must be
## byte-identical across --parallelism 1 and 2, and --stats must report
## the sparse similarity engine's counters.
parallel-check:
	$(PYTHON) -m repro study --scale 0.02 --parallelism 1 \
		> /tmp/repro-serial.out
	$(PYTHON) -m repro study --scale 0.02 --parallelism 2 \
		> /tmp/repro-parallel.out
	diff /tmp/repro-serial.out /tmp/repro-parallel.out
	$(PYTHON) -m repro study --scale 0.02 --parallelism 2 --stats \
		| grep "similarity engine:"

## Store replay check (used by CI): run a scale-0.02 study into a fresh
## datastore, re-render everything from the store alone, and require the
## two outputs to be byte-identical.
store-check:
	rm -rf /tmp/repro-store-check.db /tmp/repro-store-check-sharded
	$(PYTHON) -m repro study --scale 0.02 \
		--store /tmp/repro-store-check.db > /tmp/repro-study.out
	$(PYTHON) -m repro report \
		--store /tmp/repro-store-check.db > /tmp/repro-report.out
	diff /tmp/repro-study.out /tmp/repro-report.out
	$(PYTHON) -m repro store reshard /tmp/repro-store-check.db \
		/tmp/repro-store-check-sharded --shards 3
	$(PYTHON) -m repro report \
		--store /tmp/repro-store-check-sharded > /tmp/repro-sharded.out
	diff /tmp/repro-study.out /tmp/repro-sharded.out
	$(PYTHON) -m repro store info /tmp/repro-store-check.db --verbose
	$(PYTHON) -m repro store info /tmp/repro-store-check-sharded --shards

## Measurement-service gate (used by CI): boot `repro serve` on an
## ephemeral port, submit a scale-0.02 study over HTTP, stream its events
## to completion from two concurrent subscribers, and require the served
## report — whole and reassembled from the per-section endpoints — to be
## byte-identical to `repro report` against the same store.
serve-check:
	$(PYTHON) benchmarks/serve_check.py

## Delta-crawl gate (used by CI): evolve the universe one epoch (~5% of
## sites change content), crawl epoch 1 as a delta against the epoch-0
## store and again as a full re-crawl, and require byte-identical stores,
## byte-identical rendered sections, and a >= 3x speedup.  Tune with
## REPRO_DELTA_CHECK_SCALE / _CHURN / _SPEEDUP.
delta-check:
	$(PYTHON) benchmarks/delta_check.py

## Incremental-analysis gate (used by CI): warm the map/merge aggregate
## cache on the seed epoch, delta-crawl one evolved epoch (~5% churn),
## then render every section incrementally and monolithically and require
## byte-identical output, a hit-dominated epoch pass, and a >= 3x
## speedup.  Tune with REPRO_INCREMENTAL_CHECK_SCALE / _CHURN / _SPEEDUP.
incremental-check:
	$(PYTHON) benchmarks/incremental_check.py

## Profile one serial `repro study` run (forked crawl workers would hide
## from the profiler) and print functions by total own time.
profile:
	$(PYTHON) -m cProfile -s tottime -m repro study --scale $(SCALE) \
		--parallelism 1
