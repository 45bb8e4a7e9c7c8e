# Convenience targets for the CompDiff reproduction.

PYTHON ?= python

.PHONY: install test test-fast test-faults test-passes test-generative test-sanval test-verified smoke-generate sancheck sancheck-baseline chaos identity bench bench-quick bench-scaling bench-passes bench-throughput precision analyze examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Quick lane: skip the long-running end-to-end, interprocedural,
# generative-pipeline, and sanitizer-validation tests.
test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow and not interproc and not generative and not sanval"

# Robustness lane: fault injection + checkpoint/resume round trips.
test-faults:
	$(PYTHON) -m pytest tests/ -m faults

# Pass-manager lane: pipeline shape, golden IR digests, bisection.
test-passes:
	$(PYTHON) -m pytest tests/ -m passes

# Generative lane: program generator properties, reducer invariants, and
# the generate->diff->reduce->bank campaign end-to-end.
test-generative:
	$(PYTHON) -m pytest tests/ -m generative

# Sanitizer-validation lane: relocation transformer, verdict engine,
# campaign driver, and the scoreboard regression gate.  docs/SANVAL.md.
test-sanval:
	$(PYTHON) -m pytest tests/ benchmarks/bench_sanval.py -m sanval

# Smoke campaign: a seeded known-divergent configuration must bank at
# least one reduced repro (exit 1 otherwise).  docs/GENERATIVE.md.
smoke-generate:
	rm -rf /tmp/repro-smoke-corpus
	$(PYTHON) -m repro generate --corpus /tmp/repro-smoke-corpus \
	    --seed 0 --budget 5 --profile ub --min-banked 1

# Sancheck smoke: the planted fixture corpus must surface at least one
# sanitizer FN and one FP, with banked reduced repros (exit 1 otherwise).
sancheck:
	rm -rf /tmp/repro-sanval-bank
	timeout 300 $(PYTHON) -m repro sancheck --fixtures tests/fixtures/sanval \
	    --bank /tmp/repro-sanval-bank --min-fn 1 --min-fp 1

# Refresh the committed sanitizer-validation scoreboard baseline.
sancheck-baseline:
	cd benchmarks && $(PYTHON) bench_sanval.py

# Chaos smoke: sharded campaigns under injected shard faults (crash,
# hang, checkpoint corruption, poison seed) must merge a corpus
# byte-identical to a fault-free serial run, quarantining only the
# poison seed.  The hard timeout is part of the contract: a watchdog
# regression fails by timeout instead of stalling.  docs/ROBUSTNESS.md.
chaos:
	timeout 600 $(PYTHON) benchmarks/chaos_smoke.py

# Bank identity: the two bank-writing benchmark workloads must bank the
# keys and print the scoreboard digest recorded in perfbench/expected.json
# (run.py exits 1 on any difference).  Traced runs: each also runs
# untraced, and the traced run must reproduce the untraced identity with
# every layer entry point wrapped.
identity:
	$(PYTHON) perfbench/run.py --workload generate-ub --trace 1
	$(PYTHON) perfbench/run.py --workload sancheck-mixed --trace 1

# Same suite with IR verification enabled after every compile (and,
# with the pass manager, after every individual pass application).
test-verified:
	REPRO_VERIFY_IR=1 $(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-quick:
	REPRO_BENCH_SCALE=0.008 REPRO_BENCH_EXECS=1200 \
	    $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Parallel-engine speedup curve (1/2/4/8 workers) + verdict-equality check.
bench-scaling:
	$(PYTHON) benchmarks/bench_parallel_scaling.py

# Per-config/per-pass compile-cost breakdown; refreshes BENCH_passes.json.
bench-passes:
	$(PYTHON) benchmarks/bench_passes.py

# Substrate throughput (lockstep executor, oracle step, batched
# submission); refreshes BENCH_throughput.json.  The hard timeout is
# part of the contract: an executor regression that hangs or crawls
# fails by timeout instead of stalling the pipeline (docs/PERFORMANCE.md).
bench-throughput:
	timeout 600 $(PYTHON) benchmarks/bench_vm_throughput.py

# Oracle-validated per-checker scoreboard; refreshes BENCH_precision.json.
precision:
	$(PYTHON) benchmarks/bench_precision.py

# UB-oracle triage precision (Juliet + real-world) and analysis-boost curve.
analyze:
	$(PYTHON) benchmarks/bench_analysis_triage.py

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/unstable_code_gallery.py
	$(PYTHON) examples/fuzz_tcpdump_sim.py 3000
	$(PYTHON) examples/subset_selection.py 0.005
	$(PYTHON) examples/triage_workflow.py

clean:
	rm -rf benchmarks/results .pytest_cache build *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
