# OptiLog reproduction -- developer entry points.
#
#   make test           tier-1 test suite (the CI gate)
#   make lint           bytecode-compile the tree + import-check the package
#                       + fail on a src/ definition nothing calls (orphans)
#   make ledger-smoke   six short perf-ledger measurements, each must be correct
#                       (performance itself: ledger/README.md)
#   make bench-figures  figure benchmarks at CI scale (REPRO_FULL=1 for paper scale)
#   make campaign-smoke flat-RSS (campaign and plain run) + kill/resume (REPRO_FULL=1 for 2M)
#   make attack-smoke   jobs byte-identity + smoke robustness frontier
#   make quickstart     the README's first example
#   make examples       run every examples/*.py script end to end
#
# Everything runs from the source tree via PYTHONPATH; `pip install -e .`
# additionally provides the `repro` console script.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint ledger-smoke bench-figures campaign-smoke attack-smoke quickstart examples

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
	$(PYTHON) -c "import repro, repro.experiments.runner, repro.faults.schedule, repro.workloads, repro.__main__"
	$(PYTHON) -m repro list > /dev/null
	$(PYTHON) scripts/check_orphans.py

# One short measurement of every ledger row: the Fig. 7 workload, the
# n=512 pbft all-to-all (the wide-row store's windowed drain), the
# 73-city tree run (self-clocked unicast votes read the delay provider's
# eager rows), the faulted WAN scenarios (partition, loss, churn and
# stealth delay on the object plane), the request-target campaign
# (slices, compaction, checkpoints) and the role search (Fig. 10/12/8
# drivers, no simulator).  The driver form prints
# {correct, attempted, failed, metrics} as its last line, and no line at
# all when nothing was measured -- the JSON check fails on that too.
ledger-smoke:
	set -e; for workload in optiaware-attack pbft-scale tree-wan faulted-wan campaign-stream role-search; do \
		$(PYTHON) ledger/run.py --workload $$workload --seed 1 --seconds 5 --trace 0 \
			| tail -n 1 \
			| $(PYTHON) -c "import json, sys; r = json.load(sys.stdin); assert r['correct'] and r['failed'] == 0, r"; \
	done

bench-figures:
	$(PYTHON) -m pytest benchmarks -q

campaign-smoke:
	$(PYTHON) scripts/campaign_smoke.py

attack-smoke:
	$(PYTHON) scripts/attack_smoke.py BENCH_frontier_smoke.json

quickstart:
	$(PYTHON) examples/quickstart.py

# `make lint` only byte-compiles the examples; this runs them, so an
# example that drifts from the library API fails here.
examples:
	set -e; for example in examples/*.py; do \
		echo "== $$example"; \
		$(PYTHON) $$example; \
	done
