# Convenience targets; everything is plain `go` underneath (stdlib only,
# no external dependencies).

GO ?= go

.PHONY: all build test race bench bench-build repro repro-quick fuzz cover examples profile trace analyze cluster-smoke watch-smoke chaos-smoke lint clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

# Tier 1. Without -race on purpose: the allocation budgets
# (core.TestSimEraMessageAllocs ≤ 1 allocation,
# TestSimEraMessageBytes ≤ 128 B, TestPathConstructionAllocs ≤ 0.25
# allocations per path construction and TestEstablishmentEventAllocs
# ≤ 6 per establishment event,
# livenet.TestLiveSmallAllocBudget ≤ 20 KB and ≤ 320 allocations,
# TestLiveBulkAllocBudget ≤ 40 KB and ≤ 600 allocations, flat out,
# livenet.TestFrameWriteAllocs) skip under the race detector, where
# sync.Pool drops at random, so this is the only target that runs them.
# (session.TestMachineSteadyStateAllocs and
# TestReassemblerSteadyStateAllocs, 0 allocations after warm-up, touch
# no pool and run under -race too.)
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The root package's two benchmarks: one simulated SimEra message
# through the public API, and DESIGN.md §7's tracer-overhead guard
# (ObsOverheadNoop's ns/op within ~2 % of ObsOverheadOff's). Experiments
# are not benchmarks: they live in internal/experiments and `repro`
# runs them; speed numbers come from bench/ (see bench-build).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The repo benchmark (BENCHMARK.json, bench/) is its own Go module, so
# `go build ./...` and `go test ./...` at the root never compile it.
# This does: a refactor that breaks an import the benchmark uses fails
# here instead of in the benchmark run. Two seconds of sim_paper reach
# its checkpoint, so "correct" also means the pinned counts at seed 1
# held (23 040 delivered, 1 036 073 events, 334 082 142 wire bytes) —
# an exact check, where a throughput threshold would measure the host.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh --workload sim_paper --seed 1 --seconds 2 | tail -n 1 | grep -q '"correct":true'

# Full paper-scale reproduction of every table/figure + extensions,
# with CSV exports for plotting. results_full.txt and data/*.csv are
# committed and a same-seed run rewrites them byte for byte, so this
# leaves a clean tree clean (`git status --short` prints nothing); CI's
# `repro` job fails on any diff.
repro:
	$(GO) run ./cmd/anonbench -all -seed 1 -o results_full.txt -csv data

repro-quick:
	$(GO) run ./cmd/anonbench -all -quick

# Deterministic JSONL event trace + JSON run report of one simulation:
# same seed => byte-identical trace and byte-identical report (the
# report holds no wall clock and no paths; see README "Observability").
trace:
	$(GO) run ./cmd/anonsim -n 256 -seed 1 -trace trace.jsonl -report report.json
	@echo "wrote trace.jsonl and report.json"

# Trace-analytics smoke: a fixed-seed, gzip-traced simulation must give
# a trace whose causal reconstruction has zero integrity errors
# (-strict) and reconciles exactly with the report's registry snapshot
# (-reconcile). What the run *does* — outcome, latency attribution,
# anonymity figures, the trace's event count and hash — is pinned
# exactly by `go test ./cmd/anonsim`, not compared loosely here.
analyze:
	$(GO) run ./cmd/anonsim -n 256 -seed 1 -repair -analyze \
		-trace trace.jsonl.gz -report report.json
	$(GO) run ./cmd/anontrace report -reconcile report.json -strict trace.jsonl.gz

# CPU + heap profiles of a quick full-suite run; inspect with
# `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) run ./cmd/anonbench -all -quick -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "inspect with: go tool pprof cpu.pprof"

# Live-cluster smoke: spawn a real 5-node anonnode cluster over loopback
# TCP via the anonctl harness and record it — the recorder polls every
# node's /metrics (parsed under the 0.0.4 exposition grammar; a node
# whose exposition does not parse reads as down) and /readyz into the
# embedded time-series store and evaluates the standing alert rules,
# the same poll → tsdb → rules pipeline as watch-smoke — while
# erasure-coded multipath traffic flows through it; capture and merge
# the live NDJSON traces of every node and require the causal analysis
# to reconcile exactly with the recorded fleet counters: every message
# delivered, zero integrity errors, zero alerts. Then the offline
# analyzer must digest the captured live trace like any simulator
# trace.
cluster-smoke:
	$(GO) build -o bin/anonnode ./cmd/anonnode
	$(GO) run ./cmd/anonctl smoke -n 5 -msgs 8 -bin bin/anonnode -trace live-trace.jsonl
	$(GO) run ./cmd/anontrace report live-trace.jsonl

# Continuous-telemetry smoke: record a throwaway 2-node cluster into the
# embedded time-series store for a few seconds, require the recorded
# file to replay to a byte-identical dashboard with zero alerts fired
# (an idle healthy cluster must not trip the default anomaly/SLO
# rules), then render the recorded run offline.
watch-smoke:
	$(GO) build -o bin/anonnode ./cmd/anonnode
	$(GO) run ./cmd/anonctl record -spawn -n 2 -bin bin/anonnode \
		-for 4s -interval 500ms -out watch-run.tsdb.gz -verify
	$(GO) run ./cmd/anonctl replay -in watch-run.tsdb.gz

# Chaos smoke, the fault-injection survival gate: the fault-injection
# layer runs under the race detector first; then spawn a 9-node
# anonnode fleet and play the committed ~30 s schedule (one relay crash
# + one intra-path partition, both auto-reverting) against it while a
# repair-enabled erasure-coded session paces real traffic across the
# fault window. -verify requires survival: zero message loss, every
# condemned path rebuilt through fresh relays, full path width restored
# after the faults revert.
chaos-smoke:
	$(GO) test -race -count=1 ./internal/faultinject/
	$(GO) build -o bin/anonnode ./cmd/anonnode
	$(GO) run ./cmd/anonctl chaos -spawn 9 -bin bin/anonnode \
		-schedule ci/chaos-schedule.jsonl -msgs 10 -verify

# The repo-local rules go vet does not know, one program (ci/lint):
# internal/session stays sans-IO (no socket, clock, context,
# randomness, engine or driver import and no `go` statement in its
# non-test files); every debug/metrics server is built with timeouts,
# no handler lands on DefaultServeMux and net/http/pprof stays confined
# to the gated debug mux; and in internal/cluster and cmd/anonctl only
# recorder.go may fetch "/metrics", so fleet observation stays one
# pipeline. `go test ./ci/lint` runs the same rules, so tier 1 does too.
lint:
	$(GO) run ./ci/lint

# Short fuzz passes over the wire-facing parsers, the session machine's
# ledger and the reassembler against models of them, the in-place onion and
# reverse-layer code, the keyed cipher handles against the by-bytes
# API, the trace analyzer (anontrace report and anonctl smoke feed it
# traces over HTTP), and the simulator's radix event queue against the
# binary heap it replaced. This is the one list (17): CI's "Fuzz smoke" step is
# `make fuzz FUZZTIME=15s`. Every pass runs its fuzzer alone (-run '^$'
# skips the package's tests, the anchored -fuzz matches one target).
# (core.FuzzDecodeAppMsg and livenet.FuzzDecodeLive, which fuzz the two
# drivers' entry points over the same codec, run their seed corpora in
# `make test`.)
FUZZTIME ?= 20s
FUZZERS = \
	internal/wire:FuzzReader \
	internal/wire:FuzzRoundTrip \
	internal/session:FuzzDecodeApp \
	internal/session:FuzzReassembler \
	internal/session:FuzzMachine \
	internal/onioncrypt:FuzzCipherOpen \
	internal/onion:FuzzParseConstructLayer \
	internal/onion:FuzzResponderBlob \
	internal/onion:FuzzRelayTable \
	internal/onion:FuzzPayloadOnionInPlace \
	internal/livenet:FuzzReadFrame \
	internal/livenet:FuzzFaultHandler \
	internal/faultinject:FuzzParseSchedule \
	internal/obs/tsdb:FuzzRead \
	internal/obs:FuzzParsePrometheus \
	internal/obs/analyze:FuzzAnalyzeTrace \
	internal/sim:FuzzEventQueue

fuzz:
	@set -e; for f in $(FUZZERS); do \
		echo "fuzz $$f ($(FUZZTIME))"; \
		$(GO) test ./$${f%%:*} -run '^$$' -fuzz "^$${f##*:}\$$" -fuzztime $(FUZZTIME); \
	done

cover:
	$(GO) test -cover ./...

# Run every example program once.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/anonmail
	$(GO) run ./examples/webproxy
	$(GO) run ./examples/covertraffic
	$(GO) run ./examples/hiddenservice
	$(GO) run ./examples/livedemo

# Removes only what the targets above leave behind and git ignores;
# the committed outputs of `repro` stay.
clean:
	rm -rf trace.jsonl trace.jsonl.gz report.json cpu.pprof mem.pprof \
		bin live-trace.jsonl watch-run.tsdb.gz .bench_build
