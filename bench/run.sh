#!/bin/sh
# Builds fusionperf from source and runs it with the given flags, e.g.
#
#   sh bench/run.sh --workload fusion-cells --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and every
# temporary file (fusiond's cache directories, traced runs' span files) go
# under $CARGO_TARGET_DIR, or .bench_build when that is unset, so a run
# writes nothing outside the checkout. Builds use the local Go toolchain
# only and need no network: the benchmark module depends on nothing but
# the repository (bench/go.mod replaces "fusion" with "..").
set -eu
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go -C bench build -o "$out/fusionperf" ./cmd/fusionperf
exec "$out/fusionperf" "$@"
