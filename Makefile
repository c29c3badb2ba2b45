# Convenience targets; everything is plain `go` underneath (stdlib only,
# no external dependencies).

GO ?= go

.PHONY: all build test race bench bench-build repro repro-quick fuzz cover examples profile trace analyze cluster-smoke watch-smoke chaos-smoke lint-http lint-session lint-cluster clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Quick-mode benchmarks: one testing.B target per paper table/figure
# plus ablations.
bench:
	$(GO) test -bench=. -benchmem

# The repo benchmark (BENCHMARK.json, bench/) is its own Go module, so
# `go build ./...` and `go test ./...` at the root never compile it.
# This does: a refactor that breaks an import the benchmark uses fails
# here instead of in the benchmark run. Two seconds of sim_paper reach
# its checkpoint, so "correct" also means the pinned delivered / event /
# wire-byte counts at seed 1 held.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh --workload sim_paper --seed 1 --seconds 2 | tail -n 1 | grep -q '"correct":true'

# Full paper-scale reproduction of every table/figure + extensions,
# with CSV exports for plotting. results_full.txt and data/*.csv are
# committed and a same-seed run rewrites them byte for byte, so this
# leaves a clean tree clean; the run report (wall times) goes to the
# ignored report.json. anonbench also takes -trace/-cpuprofile/
# -memprofile (see `trace` and `profile` below) to capture
# observability artifacts alongside the results.
repro:
	$(GO) run ./cmd/anonbench -all -seed 1 -o results_full.txt -csv data -report report.json

repro-quick:
	$(GO) run ./cmd/anonbench -all -quick

# Deterministic JSONL event trace + JSON run report of one simulation
# (same seed => byte-identical trace; see README "Observability").
trace:
	$(GO) run ./cmd/anonsim -n 256 -seed 1 -trace trace.jsonl -report report.json
	@echo "wrote trace.jsonl and report.json"

# Offline trace analytics: run a gzip-traced simulation, reconstruct
# every message's causal timeline, attribute latency, compute anonymity
# observables, and cross-check the trace against the report registry.
analyze:
	$(GO) run ./cmd/anonsim -n 256 -seed 1 -repair -analyze \
		-trace trace.jsonl.gz -report report.json
	$(GO) run ./cmd/anontrace report trace.jsonl.gz -reconcile report.json -strict

# CPU + heap profiles of a quick full-suite run; inspect with
# `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) run ./cmd/anonbench -all -quick -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "inspect with: go tool pprof cpu.pprof"

# Live-cluster smoke: spawn a 5-node anonnode cluster via the anonctl
# harness, record it (the same poll → tsdb → rules pipeline as
# watch-smoke) while erasure-coded traffic flows through it, capture +
# merge live traces, reconcile the analytics against the recorded
# counters and require that no alert rule fired. Then run the offline
# analyzer over the captured live trace like any simulator trace.
cluster-smoke:
	$(GO) build -o bin/anonnode ./cmd/anonnode
	$(GO) run ./cmd/anonctl smoke -n 5 -msgs 8 -bin bin/anonnode -trace live-trace.jsonl
	$(GO) run ./cmd/anontrace report live-trace.jsonl

# Continuous-telemetry smoke: record a throwaway 2-node cluster into an
# embedded time-series file for a few seconds, verify the recorded file
# replays to a byte-identical dashboard with zero alerts fired (an idle
# healthy cluster must not trip the anomaly rules), then render the
# recorded run offline.
watch-smoke:
	$(GO) build -o bin/anonnode ./cmd/anonnode
	$(GO) run ./cmd/anonctl record -spawn -n 2 -bin bin/anonnode \
		-for 4s -interval 500ms -out watch-run.tsdb.gz -verify
	$(GO) run ./cmd/anonctl replay -in watch-run.tsdb.gz

# Chaos smoke: spawn a 9-node anonnode fleet, play the committed fault
# schedule (one relay crash + one intra-path partition, both
# auto-reverting) against it while a repair-enabled erasure-coded
# session paces real traffic across the fault window, and gate on
# survival: zero message loss, every condemned path repaired, full
# path width restored. The fault-injection layer itself runs under the
# race detector first.
chaos-smoke:
	$(GO) test -race -count=1 ./internal/faultinject/
	$(GO) build -o bin/anonnode ./cmd/anonnode
	$(GO) run ./cmd/anonctl chaos -spawn 9 -bin bin/anonnode \
		-schedule ci/chaos-schedule.jsonl -msgs 10 -verify

# Repo-local HTTP hygiene lint: no bare http.ListenAndServe, every
# http.Server literal sets ReadHeaderTimeout, and net/http/pprof stays
# confined to the gated debug mux. See ci/linthttp.
lint-http:
	$(GO) run ./ci/linthttp

# Keep internal/session sans-IO: no socket, clock, context, randomness,
# engine or driver import and no `go` statement in its non-test files.
# See ci/lintsession.
lint-session:
	$(GO) run ./ci/lintsession

# Keep fleet observation one pipeline: in internal/cluster and
# cmd/anonctl only recorder.go may fetch "/metrics". See ci/lintcluster.
lint-cluster:
	$(GO) run ./ci/lintcluster

# Short fuzz passes over the wire-facing parsers. (core.FuzzDecodeAppMsg
# and livenet.FuzzDecodeLive, which fuzz the two drivers' entry points
# over the same codec, run their seed corpora in `make test`.)
fuzz:
	$(GO) test ./internal/wire -fuzz FuzzReader -fuzztime 20s
	$(GO) test ./internal/session -run '^$$' -fuzz FuzzDecodeApp -fuzztime 20s
	$(GO) test ./internal/session -run '^$$' -fuzz FuzzReassembler -fuzztime 20s
	$(GO) test ./internal/onion -fuzz FuzzParseConstructLayer -fuzztime 20s
	$(GO) test ./internal/onion -run '^$$' -fuzz FuzzRelayTable -fuzztime 20s
	$(GO) test ./internal/onion -run '^$$' -fuzz FuzzPayloadOnionInPlace -fuzztime 20s
	$(GO) test ./internal/livenet -run '^$$' -fuzz FuzzReadFrame -fuzztime 20s
	$(GO) test ./internal/livenet -run '^$$' -fuzz FuzzFaultHandler -fuzztime 20s
	$(GO) test ./internal/faultinject -run '^$$' -fuzz FuzzParseSchedule -fuzztime 20s
	$(GO) test ./internal/obs/tsdb -run '^$$' -fuzz FuzzRead -fuzztime 20s
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzParsePrometheus -fuzztime 20s

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
