PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-fast chaos coverage regen-golden bench perf-floors train figures list profile serve loadtest

## Tier-1 verification: the full unit + benchmark suite.
test:
	$(PYTHON) -m pytest -x -q

## Unit tests only, skipping long-running (`slow`) tests.
test-fast:
	$(PYTHON) -m pytest tests/ -q -m "not slow"

## Fault-injection suite (docs/ROBUSTNESS.md): deterministic chaos —
## crashed lockstep shards, corrupted artifacts — must recover
## bit-identically or fail loudly with a quarantine record.
chaos:
	$(PYTHON) -m pytest tests/test_faults.py -v

## Fast suite with line coverage for the engine + player + ml + training
## packages (requires pytest-cov; CI enforces the floor — docs/TESTING.md).
coverage:
	$(PYTHON) -m pytest tests/ -q -m "not slow" \
	    --cov=repro.engine --cov=repro.player \
	    --cov=repro.ml --cov=repro.training \
	    --cov-report=term --cov-fail-under=80

## Rewrite the golden-master fixtures (tests/golden/) from the serial
## reference.  ONLY after an intentional, reviewed semantic change.
regen-golden:
	$(PYTHON) tests/test_golden.py --regen

## The benchmark (bench/README.md): `python -m bench measure` for every
## BENCHMARK.json workload, each output checked against its reference;
## the combined report goes to bench/out/run.json (untracked).
bench:
	$(PYTHON) -m bench run --seed 7

## Same-run perf floors (docs/PERFORMANCE.md): lockstep vs the serial
## engine on the quick grid and the RL grid, the arena kernel vs the
## pre-arena test oracle, lockstep vs serial rollout collection.  Asserts
## each ratio and prints the numbers; writes no file.
perf-floors:
	$(PYTHON) -m pytest benchmarks/test_perf_engine.py \
	    benchmarks/test_perf_kernel.py benchmarks/test_perf_training.py -v -s

## Phase-level profile of the headline experiment: telemetry on, fresh
## registry, no artifact cache (docs/OBSERVABILITY.md).
profile:
	$(PYTHON) -m repro profile headline --scale quick

## The experiment catalogue (spec/registry CLI).
list:
	$(PYTHON) -m repro list

## Quick-scale figure sweep through the unified CLI; identical re-runs are
## served from results/ (content-addressed), interrupted grids resume.
figures:
	$(PYTHON) -m repro run fig03 fig04 fig12a fig13 fig14 headline \
	    --scale quick --results results

## The always-on decision service behind a JSON-lines TCP front-end
## (docs/SERVICE.md): register/decide/evict/health ops, micro-batched onto
## the lockstep planner kernel.
serve:
	$(PYTHON) -m repro serve --scale tiny --port 7788

## Closed-loop multi-tenant load against an in-process service; writes
## results/BENCH_service.json (untracked: decisions/sec, batch-size
## distribution, p50/p99 latency) and verifies online decisions ≡ offline
## lockstep sweeps.
loadtest:
	$(PYTHON) -m repro loadtest --scale tiny --no-shed --verify \
	    --out results/BENCH_service.json

## RL training: curriculum -> checkpoints/ -> checkpoint-backed ABR grid.
train:
	$(PYTHON) -m repro train
