#!/usr/bin/env bash
# Builds the SDVM benchmark from the checkout it is started in and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fib-local --seed 1 --seconds 20 --trace 0
#
# Every build product (Go build cache, module cache, binary) stays under
# .bench_build in the current directory; nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/sdvmperf" .
exec "$out/sdvmperf" "$@"
