#!/usr/bin/env bash
# trace_smoke.sh — end-to-end smoke test of polysim's -trace flag, the
# part of cycle-level tracing that needs a process.
#
# Runs a 50k-instruction compress cell under polysim with -trace, in the
# Chrome/Perfetto format for the see and dualpath models and in the
# Konata format (both chosen by file extension), and checks that tracing
# is observation-only: polysim's statistics report is byte-identical with
# and without -trace. The exports' structure is checked in go test by
# TestTraceExportGolden (internal/obs).
#
# Trace artifacts are left in TRACE_OUT (default: a temp dir; CI sets it
# to a workspace path and uploads the directory as a workflow artifact).
set -euo pipefail

WORKDIR="$(mktemp -d)"
TRACE_OUT="${TRACE_OUT:-$WORKDIR/traces}"
mkdir -p "$TRACE_OUT"
trap 'rm -rf "$WORKDIR"' EXIT

cd "$(dirname "$0")/.."

echo "== building =="
go build -o "$WORKDIR/polysim" ./cmd/polysim
"$WORKDIR/polysim" -version

run_traced() { # model, trace file
    "$WORKDIR/polysim" -bench compress -insts 50000 -model "$1" -trace "$2" >/dev/null
}

echo "== chrome traces: see and dualpath; konata trace: see =="
run_traced see "$TRACE_OUT/compress-see.json"
run_traced dualpath "$TRACE_OUT/compress-dualpath.json"
run_traced see "$TRACE_OUT/compress-see.kanata"

echo "== tracing is observation-only =="
"$WORKDIR/polysim" -bench compress -insts 50000 -model dualpath >"$WORKDIR/plain.txt"
"$WORKDIR/polysim" -bench compress -insts 50000 -model dualpath \
    -trace "$WORKDIR/scratch.json" >"$WORKDIR/traced.txt" 2>/dev/null
if ! diff -u "$WORKDIR/plain.txt" "$WORKDIR/traced.txt"; then
    echo "FAIL: -trace changed the statistics report" >&2
    exit 1
fi
echo "  report byte-identical with and without -trace"

echo "PASS: trace smoke (artifacts in $TRACE_OUT)"
