# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: install test ci lint bench bench-snapshot bench-check experiments figures quick-experiments trace-demo session-demo service-demo cluster-demo clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# static gate: the stdlib AST lint always runs; ruff and mypy --strict
# run when installed and are skipped otherwise (CI installs both)
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint src/repro --gate

# the tier-1 gate run by .github/workflows/ci.yml: fail fast, no
# install step needed (PYTHONPATH picks up the source tree directly);
# a DeprecationWarning fails the gate, so no shim outlives its release
ci:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -x -q -W error::DeprecationWarning

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# write a new BENCH_<n>.json performance snapshot (median of 3 passes)
bench-snapshot:
	PYTHONPATH=src $(PYTHON) benchmarks/harness.py

# regression gate: rerun the harness and fail on any benchmark that
# slowed >20% (raw and machine-normalized) vs the newest BENCH_<n>.json
bench-check:
	PYTHONPATH=src $(PYTHON) benchmarks/harness.py --quick --check

experiments:
	$(PYTHON) -m repro all | tee full_experiments.txt

quick-experiments:
	$(PYTHON) -m repro all --quick

figures:
	$(PYTHON) -m repro figures

# record an observability trace for E1, then summarize and export it
trace-demo:
	PYTHONPATH=src $(PYTHON) -m repro run e1 --quick --trace-out e1-trace.json
	PYTHONPATH=src $(PYTHON) -m repro trace summarize e1-trace.json
	PYTHONPATH=src $(PYTHON) -m repro trace export e1-trace.json --csv e1-trace.csv

# drive a rolling scheduler session: the incremental engine on a clique
# (greedy family), then the per-read batch fallback on a grid
session-demo:
	PYTHONPATH=src $(PYTHON) -m repro session --topology clique --size 64 \
		--window 48 --batch 8 --epochs 50 --seed 7
	PYTHONPATH=src $(PYTHON) -m repro session --topology grid --size 8 \
		--window 48 --batch 8 --epochs 50 --seed 7

# run the continuous-arrival service: stable, overloaded, adversarial,
# then stable again under a saved fault plan (a node crash and a link
# failure), which runs the reactive engine
service-demo:
	PYTHONPATH=src $(PYTHON) -m repro service --topology grid --size 4 \
		--rate 0.5 --windows 40 --seed 7
	PYTHONPATH=src $(PYTHON) -m repro service --topology grid --size 4 \
		--rate 3.0 --windows 40 --high-water 24 --seed 7
	PYTHONPATH=src $(PYTHON) -m repro service --topology clique --size 16 \
		--stream adversarial --rate 0.6 --burst 4 --windows 40 --seed 7
	PYTHONPATH=src $(PYTHON) -c "from repro.faults import FaultPlan, \
		LinkFailure, NodeCrash; from repro.io import save_fault_plan; \
		save_fault_plan(FaultPlan([NodeCrash(5, 100), \
		LinkFailure(0, 1, 50, 300)]), 'service-plan.json')"
	PYTHONPATH=src $(PYTHON) -m repro service --topology grid --size 4 \
		--rate 0.5 --windows 40 --seed 7 --plan service-plan.json

# the crash-tolerant multi-process cluster: a clean run, then the same
# run with an injected worker kill -- --parity asserts the recovered
# run's outcome is bit-identical to the fault-free one
cluster-demo:
	PYTHONPATH=src $(PYTHON) -m repro cluster --topology grid --size 3 \
		--workers 3 --windows 12 --rate 0.6 --seed 7
	PYTHONPATH=src $(PYTHON) -m repro cluster --topology grid --size 3 \
		--workers 3 --windows 12 --rate 0.6 --seed 7 \
		--chaos kill --parity

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	rm -f e1-trace.json e1-trace.csv service-plan.json
	find . -name __pycache__ -type d -exec rm -rf {} +
