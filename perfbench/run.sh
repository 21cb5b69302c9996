#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of the checkout; arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload sampling --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
