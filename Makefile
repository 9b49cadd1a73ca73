# Developer entry points.  `make verify` is the PR gate: the tier-1 test
# suite, the paper's figures and tables, plus a smoke sweep exercising the
# parallel scenario-sweep path.

PYTHON  ?= python
PYTEST   = PYTHONPATH=src $(PYTHON) -m pytest
REPRO    = PYTHONPATH=src $(PYTHON) -m repro.cli

.PHONY: verify tier1 bench-figures check chaos smoke-sweep smoke-sweep-fresh \
	smoke-import smoke-serve sweep bench bench-smoke bench-check clean

verify: check tier1 bench-figures smoke-sweep smoke-import smoke-serve

tier1:
	$(PYTEST) -x -q

# The benchmarks that regenerate the paper's figures and tables and assert
# on their content, never on wall time: FIG-1/2/3, the GridML listings,
# plan quality, the threshold and master ablations, scaling, aggregation,
# collisions, clique frequency and mapping cost.  --benchmark-disable runs
# each body once.  The benchmarks with wall-clock asserts (dynamics,
# ingest, serve, sweep) stay out: shared hosts make them flaky gates.
FIGURES = fig1_effective_view fig1_topology fig2_structural fig3_deployment \
	gridml_listings plan_quality threshold_ablation master_ablation \
	scaling aggregation collision clique_frequency mapping_cost

bench-figures:
	$(PYTEST) -q --benchmark-disable \
		$(patsubst %,benchmarks/test_bench_%.py,$(FIGURES))

# Static AST invariant checks (repro.check): determinism of hash-critical
# modules, Platform version-bump coverage, ioutils-only writes, async
# safety under serve/, no silent excepts, clean pool boundaries.  Fails on
# any finding that is neither noqa'd inline nor grandfathered in
# check_baseline.json (refresh with `repro check --update-baseline`).
check:
	$(REPRO) check

# The seeded chaos suite (tests/test_chaos.py + the fault-plan unit tests):
# killed/hung pool workers, poisoned scenarios, breaker trips, SIGTERM
# drain, injected ENOSPC/torn-tail write failures.  Every fault is driven
# by a deterministic FaultPlan, so failures reproduce exactly.  Spans land
# in CHAOS_spans.jsonl for post-mortem rendering (repro trace); flight
# recorder bundles (breaker-open forensics) land in CHAOS_flight/.
chaos:
	REPRO_CHAOS_SPAN_LOG=CHAOS_spans.jsonl \
	REPRO_CHAOS_FLIGHT_DIR=CHAOS_flight $(PYTEST) -x -q \
		tests/test_faults.py tests/test_chaos.py

# Four small scenarios (tagged "smoke"), sharded over two workers.  Cached
# results may be served (safe: keys embed a hash of every source file), so
# repeated verifies on unchanged code — and CI's restored .sweep-cache —
# skip the redundant pipeline work.  `make smoke-sweep-fresh` forces re-runs.
smoke-sweep:
	$(REPRO) sweep --jobs 2 --filter smoke --cache-dir .sweep-cache

smoke-sweep-fresh:
	$(REPRO) sweep --jobs 2 --filter smoke --cache-dir .sweep-cache --rerun

# The imported family: ingest the committed fixture topology (CAIDA-style
# AS links) and sweep the derived scenarios through the normal cache path,
# so real-topology import is exercised on every PR.  --no-save keeps the
# working tree clean (no manifest is written).
smoke-import:
	$(REPRO) import tests/data/sample-aslinks.txt --sizes 8 10 12 --seed 7 \
		--dynamic --epochs 3 --no-save --sweep --jobs 2 \
		--cache-dir .sweep-cache

# The serving layer: start `repro serve` on an ephemeral port as a real
# subprocess and drive /healthz, /scenarios (ETag revalidation), one
# POST /runs round-trip, /metrics (JSON and Prometheus exposition) and the
# run's GET /trace/{id} timeline.  Shares .sweep-cache with the smoke
# sweep, so the pipeline run is normally a warm cache hit.
smoke-serve:
	PYTHONPATH=src $(PYTHON) scripts/serve_smoke.py

# The full catalog; cached results are reused (use --rerun to force).
sweep:
	$(REPRO) sweep --jobs 4 --cache-dir .sweep-cache

# Full benchmark suite.  Every benchmark run merges a machine-readable perf
# trajectory (per-benchmark wall time + hot-path work counters, keyed by
# benchmark id) into BENCH_results.json, and drops the collapsed-stack
# profiles of the two slowest benchmarks into BENCH_profiles/ — see
# benchmarks/conftest.py.
bench:
	$(PYTEST) benchmarks/ -q -s

# The fast subset CI runs on every push: the end-to-end fast-path benchmark
# (speedup + whole-catalog equivalence) plus the tracing-overhead gate
# (<5% at sample 1.0, near-free disabled; writes a real BENCH_spans.jsonl
# span log CI archives) and the profiling-overhead gate (<10% at 100 Hz,
# near-free disarmed).  Also writes BENCH_results.json + BENCH_profiles/.
bench-smoke:
	$(PYTEST) benchmarks/test_bench_fastpath.py \
		benchmarks/test_bench_obs_overhead.py \
		benchmarks/test_bench_profile_overhead.py \
		benchmarks/test_bench_runtime_overhead.py -q -s

# Gate against the committed perf baseline (>25% regression fails).
bench-check: bench-smoke
	$(PYTHON) benchmarks/check_bench_regression.py

clean:
	rm -rf .sweep-cache .pytest_cache .benchmarks BENCH_results.json \
		BENCH_spans.jsonl BENCH_profiles CHAOS_spans.jsonl \
		CHAOS_spans.jsonl.1 CHAOS_flight .flight
