.PHONY: all build test lint selfcheck check bench bench-smoke alloc-smoke observe-smoke graph-smoke scale-smoke micro-smoke bench-guard clean

all: build

build:
	dune build @all

test:
	dune runtest

lint:
	dune build @lint

selfcheck:
	dune build @selfcheck

# Everything CI runs: build + tests (incl. lint) + determinism
# selfcheck with the ownership oracle armed + a quick wall-clock bench
# whose output schema is validated.
check:
	dune build @check
	$(MAKE) bench-smoke
	$(MAKE) alloc-smoke
	$(MAKE) observe-smoke
	$(MAKE) graph-smoke
	$(MAKE) scale-smoke
	$(MAKE) micro-smoke
	$(MAKE) bench-guard

bench:
	dune exec bench/main.exe

# Quick wall-clock run (full 10k-conn churn, shortened echo) + schema
# check on the bench JSON + a determinism selfcheck. Fails if the bench
# crashes, a key goes missing, or selfcheck regresses. Output lands in
# the git-ignored out/ tree (the path is an explicit --out argument).
bench-smoke:
	mkdir -p out
	dune exec bench/main.exe -- wallclock quick --out out/BENCH_pr6.json
	@for key in '"pr"' '"mode"' '"echo"' '"churn"' '"wall_s"' \
	  '"events_per_sec"' '"frames_per_sec"' '"gc_alloc_mb"' \
	  '"baseline"' '"echo_us_per_op"' '"echo_gc_kb_per_op"' \
	  '"speedup_churn"' '"gc_reduction_echo"' '"gc_reduction_churn"'; do \
	  grep -q "$$key" out/BENCH_pr6.json \
	    || { echo "bench-smoke: out/BENCH_pr6.json missing key $$key" >&2; exit 1; }; \
	done
	@echo "bench-smoke: out/BENCH_pr6.json schema OK"
	dune build @selfcheck

# Demialloc end to end: dlint over the tree (which now includes the
# alloc-in-hotpath pass), then the determinism selfcheck with the
# gc-budget oracle armed — every libOS flavor must report measured
# steady polls (>0) with zero allocation violations.
alloc-smoke:
	mkdir -p out
	dune exec bin/dlint.exe -- lib
	dune exec bin/demi.exe -- selfcheck | tee out/alloc_smoke.txt
	@for f in catnip catnap catmint; do \
	  grep -Eq "gc-budget $$f +steady_polls=[1-9][0-9]* violations=0" out/alloc_smoke.txt \
	    || { echo "alloc-smoke: $$f has no measured steady polls or has violations" >&2; exit 1; }; \
	done
	@echo "alloc-smoke: OK (all flavors steady-poll allocation-free)"

# Every recorder end to end, per libOS. `demi trace`, and `demi pcap`,
# `demi flight` and `demi fleet` with --check, run their scenario
# through Harness.Observe.check — recorders off, then on, from one seed;
# trace digests, event counts and every latency must be identical — and
# then validate their artifact: the Chrome JSON and the exact
# per-component breakdown, the capture through the bundled libpcap
# reader, the flight ring, and the causal DAGs with exact critical
# paths and fleet profile. `demi slo` must catch a loss-injected
# outlier whose breakdown sums exactly to its latency, and `demi
# table5 --tail` must give exact band sums. Every command exits 1 on
# any violation; artifacts land under out/.
observe-smoke:
	mkdir -p out
	for f in catnap catnip catmint; do \
	  dune exec bin/demi.exe -- trace --flavor $$f --out out/trace-$$f.json && \
	  dune exec bin/demi.exe -- pcap --flavor $$f --check --out out/$$f.pcap && \
	  dune exec bin/demi.exe -- flight --flavor $$f --check --dump 0 && \
	  dune exec bin/demi.exe -- fleet --flavor $$f --check --profile || exit 1; \
	done
	dune exec bin/demi.exe -- fleet --flavor catnip --app relay --check
	dune exec bin/demi.exe -- slo --flavor catnip --expect-breach --out out/slo-catnip.json
	dune exec bin/demi.exe -- table5 --tail --tail-count 96
	@echo "observe-smoke: OK"

# Demideep end to end: dlint over the tree with the call-graph export
# and pass timings on. Fails unless the DOT file is a well-formed
# digraph with at least one edge and the machine-readable findings
# report landed in out/lint.json.
graph-smoke:
	mkdir -p out
	dune exec bin/dlint.exe -- --graph out/callgraph.dot --stats lib
	@head -1 out/callgraph.dot | grep -q '^digraph dlint' \
	  || { echo "graph-smoke: out/callgraph.dot missing digraph header" >&2; exit 1; }
	@tail -1 out/callgraph.dot | grep -q '^}' \
	  || { echo "graph-smoke: out/callgraph.dot not closed" >&2; exit 1; }
	@grep -q ' -> ' out/callgraph.dot \
	  || { echo "graph-smoke: out/callgraph.dot has no edges" >&2; exit 1; }
	@test -s out/lint.json \
	  || { echo "graph-smoke: out/lint.json missing or empty" >&2; exit 1; }
	@echo "graph-smoke: OK"

# Demiscale end to end: a 1k-connection open-loop Poisson/Zipf run
# through the TCB arena (`bench -- scale quick`). The bench validates
# its own JSON schema (it exits 1 and skips the "schema OK" line on a
# malformed or key-missing file); on top of that the smoke requires the
# steady-poll gc-budget oracle to have measured real polls with zero
# allocation violations and the pool sanitizer to have caught nothing.
scale-smoke:
	mkdir -p out
	dune exec bench/main.exe -- scale quick --out out/BENCH_pr10_smoke.json | tee out/scale_smoke.txt
	@grep -q "scale: JSON schema OK" out/scale_smoke.txt \
	  || { echo "scale-smoke: bench did not validate its own JSON" >&2; exit 1; }
	@grep -Eq "gc-budget scale steady_polls=[1-9][0-9]* violations=0" out/scale_smoke.txt \
	  || { echo "scale-smoke: no measured steady polls or gc violations" >&2; exit 1; }
	@grep -q '"pool_errors": 0' out/BENCH_pr10_smoke.json \
	  || { echo "scale-smoke: TCB pool sanitizer caught errors" >&2; exit 1; }
	@grep -q '"gc_poll_violations": 0' out/BENCH_pr10_smoke.json \
	  || { echo "scale-smoke: gc-budget violations with the flight recorder armed" >&2; exit 1; }
	@grep -q '"to_srv_ns"' out/BENCH_pr10_smoke.json \
	  || { echo "scale-smoke: per-hop attribution missing from bands" >&2; exit 1; }
	@echo "scale-smoke: OK"

# The Bechamel microbenchmarks (`bench -- micro`, real ns per datapath
# primitive). Fails if the run crashes or either wait_any row — 8 and
# 2048 outstanding tokens, one ready — is missing or has no estimate.
micro-smoke:
	mkdir -p out
	dune exec bench/main.exe -- micro > out/micro.txt
	@cat out/micro.txt
	@for n in 8 2048; do \
	  grep -Eq "runtime: wait_any, $$n tokens, 1 ready +[0-9]+\.[0-9]" out/micro.txt \
	    || { echo "micro-smoke: wait_any row for $$n tokens missing from out/micro.txt" >&2; exit 1; }; \
	done
	@echo "micro-smoke: OK"

# The benchmark-artifact guard: every committed BENCH_pr*.json must
# parse, match its family schema (incl. exact attribution sums and
# zero gc-poll/pool violations), and show no >1.5x quantile or GC
# regression between consecutive same-mode artifacts.
bench-guard:
	dune exec bench/main.exe -- compare

clean:
	dune clean
	rm -rf out
