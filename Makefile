.PHONY: all build test selfcheck check bench observe-smoke micro-smoke clean

all: build

build:
	dune build @all

test:
	dune runtest

selfcheck:
	dune build @selfcheck

# Everything CI runs: build + tests (incl. the scaling gate, the
# same-seed twin runs under OCAMLRUNPARAM=R, the `copies:` test that
# pins the bytes moved by lossy reassembly, IP fragments and a Dkv log
# on disk, and `demibench --smoke`) + the determinism selfcheck with the
# ownership oracle and the flight ring armed (its pinned output holds
# each flavor's bytes moved, counted by Engine.Copies, and each
# flavor's echo run must stay within its exact per-echo word budget) +
# the fig 9/11 pins + the smokes below.
# There is no copy lint and no static allocation or scan lint: the
# bytes-moved lines are the copy check, the word budget is the
# allocation check, and the scaling gate (test/test_scaling.ml: events
# and words per operation identical, CPU within a stated ratio, as
# idle connections, pending pops and queued pushes grow) is the
# scaling check. Perf regressions are judged by `demibench compare`
# (parent vs change).
check:
	dune build @check
	$(MAKE) observe-smoke
	$(MAKE) micro-smoke

bench:
	dune exec bench/main.exe

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

# The Bechamel microbenchmarks (`bench -- micro`, real ns per datapath
# primitive). Fails if the run crashes or a required row is missing or
# has neither an estimate nor `unresolved` (a fit with r^2 below 0.9,
# which is not an estimate): either wait_any row (8 and 2048
# outstanding tokens, one ready), the runtime's PDPIX dispatch row (a
# push, a pop and two waits on one queue() qd), either observer row
# (one flight note, one span interval recorded into a full Engine.Log
# ring), or any
# scheduling-substrate row (one fiber sleep, one condvar wait+broadcast,
# one event-queue add+pop with 64 events pending). Prints how many rows
# did not resolve.
MICRO_CELL := +([0-9]+\.[0-9]|unresolved)

micro-smoke:
	mkdir -p out
	dune exec bench/main.exe -- micro > out/micro.txt
	@cat out/micro.txt
	@for n in 8 2048; do \
	  grep -Eq "runtime: wait_any, $$n tokens, 1 ready $(MICRO_CELL)" out/micro.txt \
	    || { echo "micro-smoke: wait_any row for $$n tokens missing from out/micro.txt" >&2; exit 1; }; \
	done
	@grep -Eq "runtime: push\+pop\+wait, queue\(\) qd $(MICRO_CELL)" out/micro.txt \
	  || { echo "micro-smoke: runtime push+pop+wait row missing from out/micro.txt" >&2; exit 1; }
	@for row in "flight note" "span interval"; do \
	  grep -Eq "log: record, $$row $(MICRO_CELL)" out/micro.txt \
	    || { echo "micro-smoke: log row '$$row' missing from out/micro.txt" >&2; exit 1; }; \
	done
	@for row in "fiber: sleep" "condvar: wait\+broadcast" "eventq: add\+pop \(64 pending\)"; do \
	  grep -Eq "$$row $(MICRO_CELL)" out/micro.txt \
	    || { echo "micro-smoke: substrate row '$$row' missing from out/micro.txt" >&2; exit 1; }; \
	done
	@echo "micro-smoke: $$(grep -c ' unresolved ' out/micro.txt) row(s) unresolved"
	@echo "micro-smoke: OK"

clean:
	dune clean
	rm -rf out
