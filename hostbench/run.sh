#!/usr/bin/env bash
# Builds the host-cost benchmark from this checkout and runs it. Run it
# from the repository root; every argument goes to the benchmark:
#
#   bash hostbench/run.sh --workload scale-ckpt --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the traced run's files all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C "$root/hostbench" build -o "$out/hostbench-bin" .
exec "$out/hostbench-bin" "$@"
