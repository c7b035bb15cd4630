#!/usr/bin/env bash
# Builds maltperf from source and runs it with the given arguments. Run from
# the root of a checkout:
#
#   bash benchmark/run.sh --workload dense-bsp --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/ (Go's build cache included; the first build compiles the
# standard library into it).
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/home"
(
	cd benchmark
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
		go build -o "$out/bin/maltperf" ./cmd/maltperf
)
exec "$out/bin/maltperf" "$@"
