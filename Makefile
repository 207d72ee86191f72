# Developer entry points.  PYTHONPATH is prepended so the src/ layout works
# without an editable install.

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test test-fast test-explore test-fault test-oracle test-live test-chaos cov bench-e2e bench-workload bench-pair pairs docs-check loc

## full suite, paper-shape checks included (the tier-1 gate)
test:
	$(PYTHON) -m pytest -x -q

## fastest inner-loop pass: no golden-grid or full-matrix re-runs
test-fast:
	$(PYTHON) -m pytest -q -m "not golden"

## the Hypothesis properties at random draws and 10x their examples, failures
## kept in .hypothesis/ (tier-1 runs the derandomised `ci` profile; tests/conftest.py)
test-explore:
	$(PYTHON) -m pytest --hypothesis-profile=explore

## fault-injection recovery suite only (docs/robustness.md)
test-fault:
	$(PYTHON) -m pytest -q -m fault

## standing differential-validation oracle only (docs/analytic.md)
test-oracle:
	$(PYTHON) -m pytest -q -m oracle

## live loopback-socket transfers only (docs/transport.md; skips cleanly
## where the environment forbids even 127.0.0.1 UDP sockets)
test-live:
	$(PYTHON) -m pytest -q -m transport

## chaos acceptance matrix: live transfers under adversarial impairment
## profiles (docs/robustness.md; skips cleanly without sockets)
test-chaos:
	$(PYTHON) -m pytest -q -m chaos

## coverage gate (requires the [cov] extra; skips cleanly without it)
cov:
	$(PYTHON) scripts/coverage_gate.py

## the repo benchmark (BENCHMARK.json, bench/README.md): every workload once
## plus one traced pass each, written to $(OUT); touches no tracked file
OUT ?= /tmp/repro-bench.json
bench-e2e:
	python3 -m bench --repeats 1 --out $(OUT)

## one run of one workload, as BENCHMARK.json runs it: make bench-workload W=report SEED=7
W ?= report
SEED ?= 7
bench-workload:
	python3 -m bench --workload $(W) --seed $(SEED) --seconds 10 --trace 0

## two bench-e2e documents against the bounds: make bench-pair A=parent.json B=change.json
bench-pair:
	$(PYTHON) -m bench.compare $(A) $(B)

## alternating parent/change runs of one workload with the gain verdict
## (scripts/pairs.py): make pairs PARENT=../parent W=sprout_grid SEED=7 N=10
N ?= 10
pairs:
	$(PYTHON) scripts/pairs.py --parent $(PARENT) --workload $(W) --seed $(SEED) --pairs $(N)

## docs gate: validate markdown cross-links, smoke-run examples/*.py
docs-check:
	$(PYTHON) scripts/docs_check.py

## size of src/repro: total lines, code-only lines, public experiment names
## (scripts/loc.py; `make loc FILES="parallel.py sweeps.py"` adds per-file rows)
loc:
	$(PYTHON) scripts/loc.py $(FILES)
