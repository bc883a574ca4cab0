# Convenience targets for the Quartz reproduction.

PYTHON ?= python

.PHONY: install test bench bench-trajectory pairs e2e-digests examples smoke smoke-update \
	smoke-telemetry smoke-telemetry-update lint importtime ci all

install:
	pip install -e .

# The tier-1 suite, from a fresh checkout: no install needed.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

bench:
	pytest benchmarks/ --benchmark-only

# Measure the five end-to-end workloads and append their medians and
# quartiles to the committed perf trajectory, as the CI benchmark-perf
# job does (one JSON line per measured tree; view it with
# `python -m repro trajectory`).
bench-trajectory:
	$(PYTHON) benchmarks/e2e/run.py --repeats 3
	$(PYTHON) benchmarks/append_trajectory.py

# A claimed gain: alternating pairs of this tree's and PARENT's (a
# checkout of the parent commit) e2e runs of one workload, each side's
# median and quartiles per end-to-end metric, and whether the change won
# at least 9 of 10 pairs by more than the parent's IQR.
#   make pairs PARENT=../parent [WORKLOAD=fig17_sweep PAIRS=10 SEED_BASE=0]
WORKLOAD ?= fig17_sweep
PAIRS ?= 10
SEED_BASE ?= 0

pairs:
	@test -n "$(PARENT)" || { echo "usage: make pairs PARENT=DIR [WORKLOAD=...]"; exit 2; }
	$(PYTHON) benchmarks/pairs.py $(PARENT) . --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seed-base $(SEED_BASE)

# The five end-to-end workloads at their quick size, each checked
# against benchmarks/e2e/golden.json: digests, conservation and
# port-clock invariants, no timing gates (the CI e2e-digests job).
E2E_WORKLOADS = hybrid_element1056 fig17_sweep fault_recovery md1_validation \
	element1056_sharded

e2e-digests:
	set -e; for workload in $(E2E_WORKLOADS); do \
		$(PYTHON) benchmarks/e2e/run.py --quick --workload $$workload; done

examples:
	set -e; for script in examples/*.py; do echo "== $$script"; \
		PYTHONPATH=src $(PYTHON) $$script; done

# Benchmark smoke: seeded cells diffed against tests/golden/ (the CI
# benchmark-smoke job).  `make smoke-update` regenerates the golden
# after an intentional metric change.
smoke:
	PYTHONPATH=src $(PYTHON) -m repro smoke --check

smoke-update:
	PYTHONPATH=src $(PYTHON) -m repro smoke --update

# Telemetry smoke: one armed queue-diagnosis cell against the
# _telemetry golden's 12 telemetry.* metrics.  (Tier-1 tests that arm
# explicitly prove arming moves no base metric.)  The per-window JSON
# lands in telemetry-windows.json for the CI artifact upload.
smoke-telemetry:
	PYTHONPATH=src $(PYTHON) -m repro smoke --check --telemetry \
		--dump-windows telemetry-windows.json

smoke-telemetry-update:
	PYTHONPATH=src $(PYTHON) -m repro smoke --update --telemetry \
		--dump-windows telemetry-windows.json

# The 25 costliest imports (cumulative microseconds, `python -X
# importtime`) of the e2e child's import block, run from the child's
# directory with the caller's environment (bytecode caching included).
# Not part of `make ci`.
importtime:
	cd benchmarks/e2e && PYTHONPATH=../../src $(PYTHON) -X importtime \
		-c "import numpy, verify, workloads, repro.obs.report" 2>&1 >/dev/null \
		| sort -t'|' -k2 -n -r | head -25

# Lint with ruff when it is installed; skip gracefully when it is not
# (CI always installs it, local environments may not).
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

# Mirror the CI pipeline locally: tests, lint, benchmark smoke, the
# examples, the end-to-end digests.
ci:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	$(MAKE) lint
	$(MAKE) smoke
	$(MAKE) smoke-telemetry
	$(MAKE) examples
	$(MAKE) e2e-digests

all: install test bench
