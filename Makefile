# Convenience targets for the reproduction.

.PHONY: install test test-fast check chaos encodings-matrix fuzz-smoke fuzz-nightly trace-smoke serve-smoke serve-chaos dist-smoke pool-dev bench bench-quick bench-smoke bench-all perfbench-smoke proof-hints-smoke examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Skip the @pytest.mark.slow tests (deadline races, hard instances).
# Works from a clean checkout, installed or not.
test-fast:
	PYTHONPATH=src python -m pytest tests/ -m "not slow"

# The tier-1 acceptance gate: the full suite, fail-fast, from a clean
# checkout (no install needed thanks to PYTHONPATH).
check:
	PYTHONPATH=src python -m pytest -x -q tests/

# Chaos suite: deterministic fault injection end to end (fixed seed so a
# failure reproduces bit-for-bit).  See docs/reliability.md.
chaos:
	PYTHONPATH=src REPRO_CHAOS_SEED=1 python -m pytest -x -q \
		tests/test_chaos.py tests/test_parser_fuzz.py

# Encoding-matrix smoke: the cardinality/partial-order property suites
# plus the equisatisfiability matrix restricted to the new families
# (commander / bimander / product AMO, seqdirect, POP, POP-H) — a fast
# per-push gate on the encoding layer itself.  See docs/encodings.md.
encodings-matrix:
	PYTHONPATH=src python -m pytest -q tests/test_cardinality.py \
		tests/test_partial_order.py
	PYTHONPATH=src python -m pytest -q tests/test_encodings_equisat.py \
		-k "cmddirect or bimdirect or proddirect or seqdirect or pop"

# Differential-fuzzing smoke: a 60-second budgeted campaign on the
# quick matrix — which races the paper's two solver presets
# (siege_like and minisat_like) on every strategy and includes one
# strategy from each new encoding family (cmddirect, pop, pop-h), so
# both search configurations and every encoding code path are
# differentially fuzzed on each CI push.  Any disagreement between strategies fails
# the target and leaves a minimized reproducer bundle under
# fuzz-bundles/.  See docs/testing.md.
fuzz-smoke:
	PYTHONPATH=src python -m repro fuzz --seeds 3 --matrix quick \
		--budget-seconds 60 --out fuzz-bundles

# The nightly campaign: the full registry matrix (25 encodings x 2
# symmetry x 2 solver presets), rotating seed base (CI passes FUZZ_SEED_BASE
# from the run number), fixed wall budget.
FUZZ_SEED_BASE ?= 1
fuzz-nightly:
	PYTHONPATH=src python -m repro fuzz --seeds 25 \
		--seed-base $(FUZZ_SEED_BASE) --matrix full \
		--budget-seconds 1200 --out fuzz-bundles

# Observability smoke test: search alu2's width with --trace on, assert
# every line of the sink parses as JSON, that the global router's
# fpga.global_route span counted its 2-pin nets and expansions, that
# the one flow.width_search span probed and found the printed W, and
# that the conflict graph was built probes + 1 times (one fpga.csp span
# for the bounds, one per probe), always with the same edges, then
# render it.  See docs/observability.md.
trace-smoke:
	rm -f trace-smoke.trace.jsonl
	out=$$(PYTHONPATH=src python -m repro width alu2 --scale 0.6 \
		--trace trace-smoke.trace.jsonl) || exit 1; echo "$$out"; \
	WIDTH=$$(echo "$$out" | sed -n 's/.*width W = \([0-9]*\).*/\1/p') \
	PYTHONPATH=src python -c "\
	import os; \
	from repro.obs.report import parse_trace_file; \
	records = parse_trace_file('trace-smoke.trace.jsonl'); \
	spans = [r for r in records if r.get('type') == 'span']; \
	assert spans, 'trace contains no spans'; \
	assert any(r.get('type') == 'metrics' for r in records), \
	    'trace contains no metrics snapshot'; \
	routes = [r['attrs'] for r in spans \
	          if r['name'] == 'fpga.global_route']; \
	assert routes and routes[0]['two_pin_nets'] > 0 \
	    and routes[0]['expansions'] > 0, \
	    f'no fpga.global_route span with counters: {routes}'; \
	width = int(os.environ['WIDTH']); \
	searches = [r['attrs'] for r in spans \
	            if r['name'] == 'flow.width_search']; \
	assert len(searches) == 1 and searches[0].get('width') == width \
	    and searches[0]['probes'] > 0, \
	    f'no flow.width_search span that found W = {width}: {searches}'; \
	csps = [r['attrs'] for r in spans if r['name'] == 'fpga.csp']; \
	assert len(csps) == searches[0]['probes'] + 1 \
	    and len({c['edges'] for c in csps}) == 1, \
	    f'want probes + 1 fpga.csp spans with one edges value: {csps}'; \
	print(f'trace-smoke: {len(records)} records, {len(spans)} spans OK')"
	PYTHONPATH=src python -m repro trace trace-smoke.trace.jsonl

# Solver-as-a-service smoke: boot the asyncio solve service on an
# ephemeral loopback port, submit a small SAT/UNSAT corpus twice over
# the JSON-lines protocol, and assert the second pass is served almost
# entirely from the content-addressed, audit-verified result cache,
# that the metrics dump carries the serve.cache.* counters, and that
# the server shuts down cleanly.  See docs/serving.md.
serve-smoke:
	PYTHONPATH=src python -m repro.serve.smoke

# Serve chaos suite: wedge a job (the worker pool must SIGKILL its
# worker once the job's budget plus the pool's grace period has passed,
# and the slot must serve the next job from a fresh worker), drop
# connections under a retrying client, and SIGKILL the whole server
# mid-corpus then restart it over the same journal + cache — asserting
# zero lost admitted requests and no unaudited cache fills.
# Deterministic fault seeds; see docs/serving.md ("Resilience").
serve-chaos:
	PYTHONPATH=src python -m repro.serve.chaos

# Distributed-solving smoke: a 2-shard work-stealing run where one of
# two strategies crashes every attempt (its jobs end as ERROR after 2
# attempts, the other strategy's jobs all settle correctly).
# Deterministic fault seed; see docs/distributed.md.
dist-smoke:
	PYTHONPATH=src python -m repro.dist.smoke

# The worker-pool tests under the interpreter's development mode, with a
# ResourceWarning (a file, pipe, socket or process left open) turned into
# an error: guards the lifetimes of the pool's worker processes and
# pipes under every owner (the job scheduler, the portfolio race and
# the solve service) against leaks.
pool-dev:
	PYTHONPATH=src python -X dev -W error::ResourceWarning -m pytest -q \
		tests/test_pool.py tests/test_batch_runner.py tests/test_dist.py \
		tests/test_chaos.py tests/test_portfolio.py tests/test_obs.py \
		tests/test_serve.py tests/test_resilience.py tests/test_journal.py

bench:
	pytest benchmarks/ --benchmark-only

# Solver throughput (BCP stress, context and conflict-heavy suites);
# finishes in about a minute and writes BENCH_solver.json at the
# repository root.
bench-quick:
	PYTHONPATH=src python -m repro.bench.throughput --quick

# bench-quick plus the checked-in performance floor: fails on a >25%
# regression of any figure pinned in benchmarks/floor.json (stress-suite
# props/sec, conflict-suite conflicts/sec).  This is the CI bench gate.
bench-smoke:
	PYTHONPATH=src python -m repro.bench.throughput --quick \
		-o bench-smoke.json --check-floor benchmarks/floor.json

# The end-to-end benchmark (perfbench/, declared in BENCHMARK.json): its
# own tests, which the tier-1 suite does not collect, then one untraced
# pass of each workload.  Fails unless every pass exits 0, reports
# correct answers and no failed unit, and prints the pinned counters
# digest: a hash of every unit's search counters (conflicts, decisions,
# widths), so a change that moves any search trajectory fails here.  A
# change that moves one on purpose updates the pin and says so in
# CHANGES.md.
perfbench-smoke:
	python -m pytest perfbench/test_perfbench.py -q
	for pinned in unroutable:23b575684b7bac46 flow:8b524cf9460bb4ac \
			batch:144f698f9609b4d7; do \
		workload=$${pinned%%:*}; expected=$${pinned#*:}; \
		out=$$(python3 perfbench/run.py --workload $$workload --seed 1 \
			--seconds 0 --trace 0) || exit 1; \
		echo "$$out"; \
		echo "$$out" | python3 -c "import json, sys; \
	r = json.loads(sys.stdin.readlines()[-1]); \
	sys.exit(0 if r['correct'] and r['failed'] == 0 else f'failed: {r}')" \
			|| exit 1; \
		digest=$$(echo "$$out" | sed -n 's/^counters digest: //p'); \
		if [ "$$digest" != "$$expected" ]; then \
			echo "perfbench-smoke: $$workload counters digest" \
				"'$$digest', pinned '$$expected'"; \
			exit 1; \
		fi; \
	done

# Hinted-proof smoke: one traced pass of the unroutable workload, then
# every UNSAT `audit` span in its trace must show no hint miss and at
# most one unhinted proof step (the final empty clause).  Guards against
# a solver change that silently turns hints off: every answer would
# stay right, but the audit would replay each step in full, about 3x
# slower.  See docs/solver.md ("Proof logging and checking").
proof-hints-smoke:
	python3 perfbench/run.py --workload unroutable --seed 1 --seconds 0 \
		--trace 1
	PYTHONPATH=src python3 -c "\
	from repro.obs.report import parse_trace_file; \
	records = parse_trace_file('perfbench/out/unroutable-1.trace.jsonl'); \
	audits = [r['attrs'] for r in records if r.get('type') == 'span' \
	          and r.get('name') == 'audit' \
	          and r['attrs'].get('status') == 'UNSAT']; \
	assert audits, 'trace contains no UNSAT audit span'; \
	bad = [a for a in audits if 'proof_steps' not in a \
	       or a.get('hint_misses') != 0 \
	       or a['proof_steps'] - a.get('hinted_steps', 0) > 1]; \
	assert not bad, f'hint misses or unhinted steps: {bad}'; \
	hinted = sum(a['hinted_steps'] for a in audits); \
	print(f'proof-hints-smoke: {len(audits)} UNSAT audits, ' \
	      f'{hinted} hinted steps, 0 hint misses OK')"

# The previous bench-quick: a scaled-down pass of every paper table.
bench-all:
	REPRO_BENCH_SCALE=0.7 pytest benchmarks/ --benchmark-only

examples:
	for script in examples/*.py; do \
		echo "== $$script"; PYTHONPATH=src python $$script || exit 1; \
	done

clean:
	rm -rf benchmarks/results .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
