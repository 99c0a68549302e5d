# Convenience targets; GNU make, no external dependencies.

PYTHON ?= python

.PHONY: install test lint bench bench-smoke bench-fold bench-scaling bench-cold serve-smoke chaos reproduce examples clean loc

install:
	$(PYTHON) -m pip install -e '.[test]' --no-build-isolation || \
	  echo "$(CURDIR)/src" > "$$($(PYTHON) -c 'import site; print(site.getsitepackages()[0])')/repro-dev.pth"

test:
	$(PYTHON) -m pytest tests/

# AST lint: no silent exception handlers, no bare print() outside the
# report surface.  The same checks run under tier-1 via
# tests/test_lint_exceptions.py.
lint:
	$(PYTHON) tools/astlint.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# One small figure benchmark through the process pool with 2 workers;
# fresh wall-clock timings (with a pricing: profile|replay field and a
# replay-vs-profile speedup row) land in a scratch record file, then the
# regression gate fails on stages >25% slower than the committed
# BENCH_parallel.json.  The obs_overhead row (tracing+metrics on vs off
# on the same cell) is gated absolutely at <3% wall overhead.
bench-smoke:
	rm -f benchmarks/results/BENCH_smoke.json
	REPRO_PARALLEL_JSON=benchmarks/results/BENCH_smoke.json \
	  $(PYTHON) -m pytest benchmarks/bench_parallel_engine.py benchmarks/bench_fold.py benchmarks/bench_obs_overhead.py --benchmark-only --jobs 2
	PYTHONPATH=src $(PYTHON) -m repro.bench.regression --strict --fresh benchmarks/results/BENCH_smoke.json

# Reuse-fold microbenchmark: argsort oracle vs the selected O(N) fold
# (the packed-key run-head fold, or the last-seen kernel with numba);
# appends reuse_speedup + trace_gen_vectorize rows to BENCH_parallel.json
# (the committed baselines the bench-smoke gate compares against).
bench-fold:
	$(PYTHON) -m pytest benchmarks/bench_fold.py --benchmark-only

# Full fig5 scaling sweep: serial vs cold/warm trace store at 2 and 4
# workers; refreshes BENCH_parallel.json and checks artifacts stay
# bit-identical (see benchmarks/run_scaling.py).
bench-scaling:
	$(PYTHON) benchmarks/run_scaling.py

# Cold-path gate: serial vs cold-2 fig5 only, into a scratch record,
# then the strict regression gate re-judges the cold_parallel_speedup
# invariant row (cold parallel must not fall below its recorded floor)
# alongside the per-stage comparison against the committed baselines.
bench-cold:
	$(PYTHON) benchmarks/run_scaling.py --cold
	PYTHONPATH=src $(PYTHON) -m repro.bench.regression --strict --fresh benchmarks/results/BENCH_cold.json

# Serving-layer gate: stream a short arrival trace through the resident
# service (repro.serve), record sustained placements/sec + p50/p99
# decision latency to BENCH_serve.json, and prove kill-and-recover
# resumes with a bit-identical tenant table.  Strict: blown p99 budget,
# a diverged recovery, or any consistency-audit failure is a hard fail.
serve-smoke:
	$(PYTHON) benchmarks/bench_serve.py --smoke

# Fault-injection seed matrix: every injected fault must be survived
# with results bit-identical to a fault-free run (see DESIGN.md).
chaos:
	$(PYTHON) -m pytest tests/ -m chaos
	$(PYTHON) -m repro.cli chaos

# Regenerate the paper's tables/figures without pytest.
reproduce:
	$(PYTHON) -m repro.cli reproduce

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

loc:
	find src tests benchmarks examples -name '*.py' | xargs wc -l | tail -1

clean:
	rm -rf benchmarks/results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
