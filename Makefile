# ALOHA-DB development targets.

GO ?= go

.PHONY: all build fmt-check vet test race bench bench-check commit-guard alloc-guard figures figures-full examples scenarios soak clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# One codec: encoding/gob is the reference of the differential codec test
# and may not come back into non-test code, and only internal/wire (and the
# TPC-C argument parsers) read a varint by hand. One regression gate: the
# performance ledger under bench/; the night-over-night trend rows and their
# gate stay deleted. One operator surface: core.OpsHandler builds it;
# aloha-server and the scenario env assemble no mux of their own, and no
# Prometheus text parser reads our own /metrics. One ring buffer: the
# instruments keep their histories in internal/ring.
vet:
	$(GO) vet ./...
	@! grep -rl --include='*.go' '"encoding/gob"' . | grep -v '_test\.go$$'
	@! grep -rl --include='*.go' 'binary\.Uvarint(' . | grep -v '_test\.go$$' | grep -vE '^\./internal/(wire|workload/tpcc)/'
	@# One runner: internal/chaos is the fault injector alone; workloads are catalog scenarios.
	@! $(GO) list -deps ./internal/chaos | grep -xE 'alohadb/internal/(core|scenario|wal|chaos/oracle)'
	@! grep -rlE --include='*.go' 'aloha-trend|GateTrend|TrendRow' .
	@! grep -rlE --include='*.go' 'metrics\.OpsHandler\(|"net/http/pprof"' cmd/aloha-server internal/scenario | grep -v '_test\.go$$'
	@! grep -rl --include='*.go' 'ParseMetrics' .
	@# One durability path: the write-ahead log is the only DurabilityHook.
	@! grep -rlE --include='*.go' 'func \([^)]*\) LogEpochCommitted\(' . | grep -v '_test\.go$$' | grep -v '^\./internal/wal/'
	@# One ring buffer: the instruments' histories are internal/ring, not slots indexed by hand.
	@! grep -rnE --include='*.go' '%[[:space:]]*(uint64\()?len\(|% r\.cfg\.retention' internal/obs internal/trace | grep -v '_test\.go:'

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

# The performance ledger is a module of its own (bench/go.mod), so `build`,
# `vet` and `test` above never compile it: vet it and run its tests (every
# workload and probe, correctness checks on) against this tree's engine.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# An epoch commit with retention on must not scale with the store (ns/op of
# BenchmarkEpochCommitRetention at 200 k keys within 3x of 1 k keys), and the
# hand-off of its functors to the processor not more than linearly with what
# it wrote (ns/functor of BenchmarkEpochHandoff at 256 k items within 2x of
# 16 k). And a hop of the simulated mesh must cost what it was configured for
# (median round trip of BenchmarkMemHop at 100 us +- 40 us each way under
# 700 us from 1 caller and from 64).
commit-guard:
	./scripts/commit-guard.sh

# Object budgets and zero-allocation paths, the block CI runs: what a key
# written once keeps alive (core.TestStoreObjectBudget), the chain and record
# size classes, the untraced install/compute path, the TPC-C NewOrder pins,
# and the wire/hand-off/ring/trace/skew/journal/recorder benchmarks at 0 allocs/op.
alloc-guard:
	./scripts/alloc-guard.sh

# Quick regeneration of every figure of the paper's evaluation: 400 ms per
# parameter point; the figures print their rows as text.
figures:
	$(GO) run ./cmd/aloha-bench run -window 1600ms bench

# Paper-scale parameters, 2 s per point (slow).
figures-full:
	$(GO) run ./cmd/aloha-bench run -full -window 8s bench

# Scenario matrix: every scenario the expression selects from the registry
# (`aloha-bench list` shows it), oracle-checked. The default is CI's per-PR
# smoke matrix; EXPR='chaos && !crash', EXPR=migrate-recover, ... pick others.
# The four chaos suites are scenarios like any other (EXPR='name:chaos-*'); a
# failure prints the `aloha-bench run -seed N -window W name:<scenario>` line
# that replays it.
EXPR ?= smoke
SEED ?= 1
scenarios:
	$(GO) run ./cmd/aloha-bench run -seed $(SEED) '$(EXPR)'

# Nightly-scale soak: the soak-tagged scenarios share SOAK_DURATION (default
# 20m), all at seed SEED — pass a different one per run (CI passes its run
# number) or every night replays the same streams. Each is gated on its p99
# SLOs, zero stalls and the oracle; a failure writes a replayable artifact to
# SCENARIO_ARTIFACT when set.
SOAK_DURATION ?= 20m
SCENARIO_ARTIFACT ?=
soak:
	$(GO) run ./cmd/aloha-bench run -soak $(SOAK_DURATION) -seed $(SEED) $(if $(SCENARIO_ARTIFACT),-artifact $(SCENARIO_ARTIFACT)) soak

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/banking
	$(GO) run ./examples/timetravel
	$(GO) run ./examples/reservations

clean:
	$(GO) clean ./...
