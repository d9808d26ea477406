#!/usr/bin/env bash
# Builds polybench from this checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash polybench/run.sh --workload fig8-long --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -buildvcs=false -o "$out/polybench" ./polybench
exec "$out/polybench" "$@"
