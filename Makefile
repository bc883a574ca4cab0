# Convenience targets for the Quartz reproduction.

PYTHON ?= python

.PHONY: install test bench bench-trajectory examples smoke smoke-update \
	smoke-telemetry smoke-telemetry-update lint ci all

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

# Telemetry-enabled smoke: the same cells with monitors armed (their
# metrics must not move — telemetry is strictly observational) plus a
# queue-diagnosis cell, against the _telemetry golden.  The per-window
# JSON lands in telemetry-windows.json for the CI artifact upload.
smoke-telemetry:
	PYTHONPATH=src $(PYTHON) -m repro smoke --check --telemetry \
		--dump-windows telemetry-windows.json

smoke-telemetry-update:
	PYTHONPATH=src $(PYTHON) -m repro smoke --update --telemetry \
		--dump-windows telemetry-windows.json

# Lint with ruff when it is installed; skip gracefully when it is not
# (CI always installs it, local environments may not).
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

# Mirror the CI pipeline locally: tests, lint, benchmark smoke, the
# examples.
ci:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	$(MAKE) lint
	$(MAKE) smoke
	$(MAKE) smoke-telemetry
	$(MAKE) examples

all: install test bench
