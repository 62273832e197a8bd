# ALOHA-DB development targets.

GO ?= go

.PHONY: all build fmt-check vet test race bench bench-check commit-guard alloc-guard bench-net chaos chaos-long figures figures-full examples obs-smoke migrate-smoke scenarios soak trend-gate clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

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

# An epoch commit with retention on must not scale with the store: ns/op of
# BenchmarkEpochCommitRetention at 200 k keys within 3x of 1 k keys.
commit-guard:
	./scripts/commit-guard.sh

# Object budgets and zero-allocation paths, the block CI runs: what a key
# written once keeps alive (core.TestStoreObjectBudget), the chain and record
# size classes, the untraced install/compute path, the TPC-C NewOrder pins,
# and the wire/trace/skew/journal/recorder benchmarks at 0 allocs/op.
alloc-guard:
	./scripts/alloc-guard.sh

# Transport/combiner hot-path benchmarks; writes BENCH_transport.json.
bench-net:
	$(GO) run ./cmd/aloha-bench -netbench -netbench-label current -duration 2s

# Regression gate: rerun the suite and fail on a throughput regression
# against the committed current section (no file writes).
netbench-gate:
	./scripts/netbench-gate.sh

# Oracle-checked chaos smoke: a handful of seeds, exits non-zero on any
# violation and prints the replay command.
chaos:
	$(GO) run ./cmd/aloha-bench -chaos -chaos-seeds 4
	$(GO) run ./cmd/aloha-bench -chaos -chaos-seeds 1 -chaos-crash
	$(GO) run ./cmd/aloha-bench -chaos -chaos-seeds 1 -chaos-tcp

# Nightly-scale chaos sweep under the race detector (20+ seeds rotating
# link chaos, crash recovery, and TCP).
chaos-long:
	$(GO) test -race -timeout 40m ./internal/chaos/ -run TestChaosLong -v -count=1 -args -chaos.long

# Quick regeneration of every figure of the paper's evaluation.
figures:
	$(GO) run ./cmd/aloha-bench -figure all

# Paper-scale parameters (slow).
figures-full:
	$(GO) run ./cmd/aloha-bench -figure all -full

# Observability smoke: boot a 3-server sim cluster with the full obs stack,
# aggregate it with aloha-top, and assert the cluster view is sane.
obs-smoke:
	./scripts/obs-smoke.sh

# Live-migration smoke: induce a single-partition Zipfian hot spot on a
# 3-server sim cluster, split it live through the placement layer, and
# assert throughput recovery plus a sane aloha-top view across the move.
migrate-smoke:
	./scripts/migrate-smoke.sh

# Scenario matrix smoke: every smoke-tagged scenario from the declarative
# registry (high-contention workloads + ported harnesses) under light
# fault injection, oracle-checked. `-scenario-list` shows the catalog.
scenarios:
	$(GO) run ./cmd/aloha-bench -scenarios smoke

# Nightly-scale soak: loop the soak-tagged scenarios with rotating seeds
# for SOAK_DURATION (default 20m). A failure writes a replayable artifact
# (scenario name, seed, log tail) to SCENARIO_ARTIFACT when set.
SOAK_DURATION ?= 20m
SCENARIO_ARTIFACT ?=
SCENARIO_TREND ?=
soak:
	$(GO) run ./cmd/aloha-bench -scenarios soak -soak-duration $(SOAK_DURATION) $(if $(SCENARIO_ARTIFACT),-scenario-artifact $(SCENARIO_ARTIFACT)) $(if $(SCENARIO_TREND),-scenario-trend $(SCENARIO_TREND))

# Nightly trend gate: compare tonight's TREND_*.jsonl summary rows against
# the previous night's file, failing on throughput / p99 / stall / anomaly
# regressions beyond a loose tolerance. First night (no previous file)
# passes and seeds the baseline.
TREND_PREV ?= TREND_prev.jsonl
TREND_CUR ?= TREND_soak.jsonl
trend-gate:
	./scripts/trend-gate.sh $(TREND_PREV) $(TREND_CUR)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/banking
	$(GO) run ./examples/timetravel
	$(GO) run ./examples/reservations
	$(GO) run ./examples/tpcc -duration 500ms -items 1000

clean:
	$(GO) clean ./...
