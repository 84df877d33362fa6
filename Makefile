# Developer entry points.  `make verify` is the one-command gate every
# change must pass (lint when ruff is installed + layer boundaries +
# tier-1 tests + the e2e benchmark's oracle at tiny scale + its
# trace-table test).

.PHONY: verify test lint bench bench-e2e chaos coverage determinism

verify:
	sh scripts/verify.sh

test:
	PYTHONPATH=src python -m pytest -x -q

lint:
	ruff check src tests benchmarks

bench:
	PYTHONPATH=src python -m pytest benchmarks -q

# The wall-clock end-to-end benchmark (BENCHMARK.json): three runs of
# every workload plus a traced one, compared with the recorded baseline
# (several minutes).
bench-e2e:
	PYTHONPATH=src python -m benchmarks.e2e set --runs 3 --out benchmarks/e2e/out/mine.json
	PYTHONPATH=src python -m benchmarks.e2e compare benchmarks/e2e/baseline.json benchmarks/e2e/out/mine.json

chaos:
	PYTHONPATH=src python -m pytest -q -m chaos

coverage:
	sh scripts/coverage.sh

# Every simulated second is modeled from counted work, so two runs of
# the sim-only experiments must write byte-identical result files.
determinism:
	rm -rf .determinism
	for run in a b; do \
		REPRO_SCALE=tiny REPRO_RESULTS_DIR=.determinism/$$run PYTHONPATH=src \
			python -m repro.bench --queries 3 > /dev/null || exit 1; \
	done
	diff -r .determinism/a .determinism/b
	rm -rf .determinism
