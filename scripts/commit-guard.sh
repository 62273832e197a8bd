#!/bin/sh
# Commit-cost guard, shared by `make commit-guard` and CI: an epoch commit
# with retention on must cost what the epoch wrote, not what the store
# holds. Runs BenchmarkEpochCommitRetention (100 keys written per epoch,
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
