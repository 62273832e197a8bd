#!/bin/sh
# Allocation guards, shared by `make alloc-guard` and CI: the object budgets
# the hot path and the store's layout are held to, as tests that count heap
# objects and as benchmarks whose steady state must allocate nothing. A
# failure names the budget that was broken.
set -eu

# Object counts and size classes: the untraced install/compute path, what a
# key written once keeps alive (nothing: it is a row), the version-chain and
# row budgets, and the TPC-C workload's keys, router and handler.
go test -count=1 ./internal/core/ -run '^(TestUntracedHotPathAllocs|TestStoreObjectBudget|TestLoadAllocatesNoFunctorPerPair)$'
go test -count=1 ./internal/mvstore/ -run '^(TestAllocationBudgets|TestChainSizeClass)$'
go test -count=1 ./internal/workload/tpcc/ -run '^(TestNewOrderAllocations|TestRouterMatchesReferenceAndAllocatesNothing)$'
go test -count=1 ./internal/trace/ -run '^TestDisabledPathAllocs$'

# allocs PKG BENCH ITERATIONS ROWS N: every one of ROWS benchmark rows
# reports N allocs/op. zero is allocs with N = 0.
allocs() {
	out="$(go test "$1" -run '^$' -bench "$2" -benchmem -benchtime "$3")"
	echo "$out"
	if [ "$(echo "$out" | grep -Ec "[[:space:]]$5 allocs/op")" -ne "$4" ]; then
		echo "alloc-guard: $1 $2 does not allocate $5 objects per operation" >&2
		exit 1
	fi
}
zero() { allocs "$1" "$2" "$3" "$4" 0; }
zero ./internal/core/ 'BenchmarkWire(Encode|Decode)Msg(Fetch|Install)$' 100000x 4
# The same install through the registry's wrappers, as the flusher and the
# read loop run it: encoding allocates nothing, decoding the message it
# returns (the value, its slices and functors: 8 objects) and nothing besides.
zero ./internal/core/ 'BenchmarkEnvelopeInstall/enc$' 100000x 1
allocs ./internal/core/ 'BenchmarkEnvelopeInstall/dec$' 100000x 1 8
zero ./internal/core/ 'BenchmarkHandoffSteadyState$' 200x 1
# A born-final write to a fresh key and the read of a row, slabs and index
# pre-grown: a slab or an index doubling now and then rounds to nothing.
zero ./internal/mvstore/ 'BenchmarkStoreRow(Put|Read)$' 100000x 2
zero ./internal/ring/ 'BenchmarkRing(Lock|Add)$' 100000x 2
zero ./internal/trace/ 'BenchmarkDisabledSpan' 100000x 1
zero ./internal/obs/ 'BenchmarkSkew(Disabled|SampledOut)Observe' 100000x 2
zero ./internal/obs/journal/ 'BenchmarkJournal(Disabled|Enabled)Install' 100000x 2
zero ./internal/obs/tsdb/ 'BenchmarkRecorderSample' 10000x 1
echo "alloc-guard: ok"
