#!/bin/sh
# Commit-cost guard, shared by `make commit-guard` and CI. Two things an
# epoch commit must not scale with, each a pair of benchmark rows compared
# best of three, the epoch period a slow commit must not stretch, and the
# cost of the simulated hop every commit latency measured over the
# in-memory mesh is made of.
#
# The store: an epoch commit with retention on must cost what the epoch
# wrote, not what the store holds. Runs BenchmarkEpochCommitRetention (100 keys written per epoch,
# retention 4) over a 1 k-key and a 200 k-key store, takes the best of three
# ns/op for each, and fails when the large store's commit is more than
# three times the small one's. A sweep of the store per commit, which this
# guards against, reads two orders of magnitude apart.
set -eu

out="$(go test ./internal/core/ -run '^$' -bench 'BenchmarkEpochCommitRetention' -benchtime 200x -count 3)"
echo "$out"
echo "$out" | awk '
	/keys=1k/   { if (!small || $3 < small) small = $3 }
	/keys=200k/ { if (!large || $3 < large) large = $3 }
	END {
		if (!small || !large) { print "commit-guard: benchmark rows missing" > "/dev/stderr"; exit 1 }
		printf "commit-guard: %d ns/op at 1k keys, %d ns/op at 200k keys (ratio %.2f, limit 3)\n", small, large, large / small
		if (large > 3 * small) { print "commit-guard: epoch commit cost scales with the store" > "/dev/stderr"; exit 1 }
	}'

# What the epoch wrote, more than linearly: getting an epoch's functors from
# the commit to computed costs the same per functor whether the epoch
# installed 16 k or 256 k. Runs BenchmarkEpochHandoff (one single-ADD
# transaction per key, timed AdvanceEpoch + DrainProcessors) at both sizes and
# fails when ns/functor at 256 k is more than twice that at 16 k. A queue that
# shifts what it still holds after every batch, which this guards against,
# reads four times apart.
out="$(go test ./internal/core/ -run '^$' -bench 'BenchmarkEpochHandoff' -benchtime 2x -count 3)"
echo "$out"
echo "$out" | awk '
	{ for (i = 2; i < NF; i++) if ($(i + 1) == "ns/functor") v = $i }
	/items=16k/  { if (!small || v < small) small = v }
	/items=256k/ { if (!large || v < large) large = v }
	END {
		if (!small || !large) { print "commit-guard: benchmark rows missing" > "/dev/stderr"; exit 1 }
		printf "commit-guard: %d ns/functor at 16k items, %d ns/functor at 256k items (ratio %.2f, limit 2)\n", small, large, large / small
		if (large > 2 * small) { print "commit-guard: the processor hand-off is quadratic in what an epoch wrote" > "/dev/stderr"; exit 1 }
	}'

# The epoch period: switches start on a fixed grid, so a commit that takes
# part of the epoch does not lengthen it. Runs BenchmarkEpochCadence (10 ms
# Duration, one participant whose Committed takes 4 ms, 30 switches), takes
# the best of three median switch-to-switch periods and fails above 11 ms,
# 1.1 x Duration. A timer re-armed after each switch, which this guards
# against, reads 15 ms; the grid reads 10.
out="$(go test ./internal/epoch/ -run '^$' -bench 'BenchmarkEpochCadence' -benchtime 30x -count 3)"
echo "$out"
echo "$out" | awk '
	{ for (i = 2; i < NF; i++) if ($(i + 1) == "p50-period-us") v = $i }
	/^BenchmarkEpochCadence/ { if (!best || v < best) best = v }
	END {
		if (!best) { print "commit-guard: benchmark rows missing" > "/dev/stderr"; exit 1 }
		printf "commit-guard: median epoch period %d us at a 10000 us Duration (limit 11000)\n", best
		if (best > 11000) { print "commit-guard: a slow commit stretches the epoch beyond its Duration" > "/dev/stderr"; exit 1 }
	}'

# The simulated hop: a Call over a mesh configured like the benchmark's
# (100 us +- 40 us each way) must take what was configured, from an idle
# process and from a busy one. Runs BenchmarkMemHop with 1 and with 64
# concurrent callers, takes the best of three median round trips for each
# and fails when either reads 700 us or more. A time.Sleep per hop, which
# this guards against, is rounded up to the millisecond an idle Go scheduler
# parks for and reads 2200 us; the mesh's delay line reads 300 to 350. Off
# Linux the line has no kernel timer to sleep by and is not held to it.
if [ "$(go env GOOS)" != linux ]; then
	echo "commit-guard: simulated hop not checked on $(go env GOOS): the delay line sleeps by Go timers there"
	exit 0
fi
out="$(go test ./internal/transport/ -run '^$' -bench 'BenchmarkMemHop' -benchtime 1000x -count 3)"
echo "$out"
echo "$out" | awk '
	{ for (i = 2; i < NF; i++) if ($(i + 1) == "p50-rtt-us") v = $i }
	$1 ~ /waiters=1(-[0-9]+)?$/  { if (!one || v < one) one = v }
	$1 ~ /waiters=64(-[0-9]+)?$/ { if (!many || v < many) many = v }
	END {
		if (!one || !many) { print "commit-guard: benchmark rows missing" > "/dev/stderr"; exit 1 }
		printf "commit-guard: median round trip %d us from 1 caller, %d us from 64 (limit 700)\n", one, many
		if (one >= 700 || many >= 700) { print "commit-guard: a simulated hop costs more than the mesh was configured for (the transport logs it once if timerfd_create was refused)" > "/dev/stderr"; exit 1 }
	}'
