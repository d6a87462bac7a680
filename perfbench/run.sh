#!/usr/bin/env bash
# Builds the benchmark and beaconsimd from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd perfbench && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/beaconsimd" ./cmd/beaconsimd
exec "$out/bin/perfbench" -simd "$out/bin/beaconsimd" -tmp "$out/tmp" "$@"
