# Developer entry points.  Everything runs from the repository root and
# injects PYTHONPATH=src (the package is not required to be installed).

PY ?= python

.PHONY: test test-fast native bench bench-smoke bench-record \
	bench-compare bench-regression docs-check lint service-smoke \
	staticcheck perfbench-check verify

# Tier-1 verification: the full test suite.
test:
	PYTHONPATH=src $(PY) -m pytest -x -q

# Inner-loop subset: skip the @slow large equivalence matrices.  CI and
# bare `make test` still run everything.
test-fast:
	PYTHONPATH=src $(PY) -m pytest -x -q -m "not slow"

# Build (or refresh) the native slot-loop kernel — a plain ctypes
# shared library next to its C source (src/repro/native/_advance.so).
# Fails when no C compiler is available; the package itself degrades
# gracefully without the build (pure-numpy fallback).
native:
	PYTHONPATH=src $(PY) -m repro.native.build --force

# Paper-artifact benchmarks (prints measured-vs-predicted tables).
bench:
	PYTHONPATH=src $(PY) -m pytest benchmarks -q --benchmark-only

# Fast bit-rot gate: every bench script's smallest configuration
# (imports + one tiny sweep each, statistical assertions skipped).
bench-smoke:
	$(PY) scripts/bench_smoke.py

# Regenerate the committed perf records (BENCH_vectorized.json,
# BENCH_protocols.json, BENCH_fading.json, BENCH_mobility.json,
# BENCH_sparse.json, BENCH_native.json, BENCH_service.json) by running
# the recorded benchmarks at their full configuration.
# REPRO_BENCH_STRICT=0 relaxes the absolute speedup bars (bit-identity
# stays asserted): in the regression gate the *relative* 20% comparison
# of bench-compare is the arbiter.
bench-record:
	PYTHONPATH=src REPRO_BENCH_STRICT=0 $(PY) -m pytest \
		benchmarks/bench_vectorized_stack.py \
		benchmarks/bench_fading_robustness.py \
		benchmarks/bench_mobility_churn.py \
		benchmarks/bench_sparse_sinr.py \
		benchmarks/bench_native_kernel.py \
		benchmarks/bench_service.py -q --benchmark-only

# Compare the fresh records against the committed baselines: the
# counters-only speedup may not regress more than 20%.
bench-compare:
	$(PY) scripts/bench_compare.py

# The CI bench-regression job, reproduced locally.
bench-regression: bench-record bench-compare

# Documentation completeness: every bench_*.py must be catalogued in
# docs/benchmarks.md, and the doc suite must exist.
docs-check:
	$(PY) scripts/check_docs.py

# Style gate: ruff (configured in pyproject.toml) when available, a
# stdlib approximation otherwise (offline dev containers).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check . && ruff format --check .; \
	else \
		echo "ruff not installed; running stdlib fallback checks"; \
		$(PY) scripts/lint_fallback.py; \
	fi

# End-to-end service smoke: boot the TCP job server, submit a tiny job
# through the client, assert a streamed, bit-identical result.
service-smoke:
	PYTHONPATH=src $(PY) scripts/service_smoke.py

# reprolint: the repo's invariant analyzer (determinism, plan purity,
# service concurrency, executor parity, registry exhaustiveness —
# rules catalogued in docs/invariants.md).  Pure stdlib; exits nonzero
# on any unsuppressed finding.
staticcheck:
	PYTHONPATH=src $(PY) -m repro.staticcheck

# The cold benchmark's pinned seed-1 digests: each perfbench workload
# runs once (three cold sweeps, no timing budget, no trace) and must
# end with a JSON line reporting "correct": true.
PERFBENCH_WORKLOADS = decay-sweep sparse-cold protocol-sweep paper-stack

perfbench-check:
	@for w in $(PERFBENCH_WORKLOADS); do \
		out=$$($(PY) perfbench/run.py --workload $$w --seed 1 \
			--seconds 0 --trace 0) || { echo "$$out"; exit 1; }; \
		echo "$$out" | head -n 2; \
		echo "$$out" | tail -n 1 | $(PY) -c 'import json, sys; \
			sys.exit(json.load(sys.stdin)["correct"] is not True)' \
			|| { echo "perfbench-check: $$w is not correct"; exit 1; }; \
	done

# Everything the CI gate cares about: the verify matrix's three steps,
# the staticcheck and lint jobs, the service smoke leg, the
# bench-regression job and the perfbench digest check.
verify: test staticcheck docs-check bench-smoke service-smoke lint bench-regression perfbench-check
