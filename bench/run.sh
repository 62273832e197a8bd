#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the Go
# toolchain and the benchmark write (build cache, telemetry counters, binary,
# WAL and span files) under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/alohabench" .)
cd "$root"
exec "$out/alohabench" "$@"
