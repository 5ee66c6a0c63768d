# Developer entry points. `make test` is the tier-1 gate CI runs.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint analyze bench-smoke bench e22 bench-batch bench-batch-smoke \
	bench-serve bench-serve-smoke bench-api bench-serve-sharded \
	bench-serve-sharded-smoke bench-scenarios bench-scenarios-smoke \
	perfbench-smoke

test:
	$(PYTHON) -m pytest -x -q

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed — skipping lint"; \
	fi

# The project invariant analyzer (repro.analysis.lint): REP001-REP008
# over the whole tree, failing on any unsuppressed finding.  Writes the
# JSON report CI archives and compare_results.py diffs between runs.
analyze:
	$(PYTHON) -m repro lint src tests benchmarks examples \
		--format json --output benchmarks/_results/analysis_report.json
	$(PYTHON) -m repro lint src tests benchmarks examples

# Fast pass over the experiment harness: every bench executes once,
# pytest-benchmark timing loops disabled.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_e16_simulator_kernels.py \
		benchmarks/bench_e22_backend_scaling.py -q --benchmark-disable

bench:
	$(PYTHON) -m pytest benchmarks -q --benchmark-only

e22:
	$(PYTHON) -m pytest benchmarks/bench_e22_backend_scaling.py -q --benchmark-disable

# E23: the stacked engines vs the per-instance loop — classes at any
# scale, the (B, N, 2) stacked-dense subspace backend on the medium-N
# grid, and the CSR ragged substrate on mixed-ν batches.  Full run
# asserts the ≥5× (classes), ≥3× (dense) and ≥2×-over-padded (ragged)
# instances/sec bars at B = 256; the smoke variant (tiny B, all
# backends, no throughput assertion) is what CI executes.
bench-batch:
	$(PYTHON) -m pytest benchmarks/bench_e23_batched_throughput.py -q --benchmark-disable

bench-batch-smoke:
	$(PYTHON) -m pytest benchmarks/bench_e23_batched_throughput.py -q \
		--benchmark-disable -k smoke

# E24: the long-lived serving loop vs the offline batched driver.  Full
# run asserts the ≥0.8× throughput bar and the deadline-bounded p99; the
# smoke variants (tiny trace + the mixed-ν ragged trickle, whose ≥2×
# and ≥0.9-fill bars self-gate on ≥4 cores) are what CI executes,
# alongside a CLI trace through `python -m repro serve`.
bench-serve:
	$(PYTHON) -m pytest benchmarks/bench_e24_serving.py -q --benchmark-disable \
		-k "not hook"

bench-serve-smoke:
	$(PYTHON) -m pytest benchmarks/bench_e24_serving.py -q \
		--benchmark-disable -k smoke
	$(PYTHON) -m repro serve --max-requests 32 --universe 256 --total 64 \
		--machines 2 --batch-size 8 --flush-deadline 0.02

# E26: the sharded multi-process serving tier vs the single-process
# dispatcher.  Full run sweeps {poisson, bursty} arrival traces across
# shards {1, 2, 4} and asserts row equivalence + the zero-copy bar; the
# ≥2× scaling bar self-skips below 4 CPU cores.  The smoke variant
# (tiny trace, shards=2) is what CI executes, alongside a CLI trace
# through `python -m repro serve --shards`.
bench-serve-sharded:
	$(PYTHON) -m pytest benchmarks/bench_e26_sharded_serving.py -q \
		--benchmark-disable -k "not hook"

bench-serve-sharded-smoke:
	$(PYTHON) -m pytest benchmarks/bench_e26_sharded_serving.py -q \
		--benchmark-disable -k smoke
	$(PYTHON) -m repro serve --max-requests 16 --universe 256 --total 64 \
		--machines 2 --batch-size 8 --flush-deadline 0.02 --shards 2

# E27: the adversarial-scenario matrix — every registered scenario
# (machine loss on replicated/disjoint shards, kill/revive schedules,
# churn, skew, topology growth) served across the unsharded and 2-shard
# tiers, each cell gated on instance-replay equivalence (1e-12) and the
# exact fault-fidelity identities.  The smoke variant (four scenario
# families, short trace) is what CI executes, alongside a CLI trace
# through `python -m repro serve --scenario`.
bench-scenarios:
	$(PYTHON) -m pytest benchmarks/bench_e27_scenario_matrix.py -q \
		--benchmark-disable -k "not hook"

bench-scenarios-smoke:
	$(PYTHON) -m pytest benchmarks/bench_e27_scenario_matrix.py -q \
		--benchmark-disable -k smoke
	$(PYTHON) -m repro serve --scenario disjoint-loss --max-requests 8 \
		--batch-size 4

# E25: the repro.api front door — the planner routes one tiny request
# grid through all four execution strategies (instance, stacked, fanout,
# served) and asserts row agreement.  Cheap enough that CI runs it whole.
bench-api:
	$(PYTHON) -m pytest benchmarks/bench_e25_api_pipeline.py -q \
		--benchmark-disable

# The front-door benchmark (perfbench/, declared in BENCHMARK.json): a
# 3-second untraced run of each declared workload, failing unless the
# run's last line reports "correct": true — so an API change cannot
# break the benchmark unnoticed.
PERFBENCH_SMOKE_WORKLOADS = serve-open churn-sharded

perfbench-smoke:
	@for workload in $(PERFBENCH_SMOKE_WORKLOADS); do \
		out=$$($(PYTHON) perfbench/run.py --workload $$workload --seed 1 \
			--seconds 3 --trace 0) || { echo "$$out"; exit 1; }; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | grep -q '"correct": true' \
			|| { echo "perfbench-smoke: $$workload is not correct"; exit 1; }; \
	done
