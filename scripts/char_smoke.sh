#!/usr/bin/env bash
# char_smoke.sh — end-to-end smoke test of the trace ingestion + workload
# characterization suite (internal/btrace, cmd/polychar).
#
# Checks what needs the CLIs as separate processes:
#   1. one round trip through files: polysim -emit-trace exports the go
#      stand-in to a PBT1 trace, polychar -trace -synth profiles it and
#      synthesizes a calibrated stand-in, and polysim -import-trace
#      simulates the synthesized stand-in end to end,
#   2. corrupt traces fail with a typed diagnostic, not a panic.
#
# The placement golden and the ±10% fidelity gate are go test's
# (TestCommittedTables, TestRoundTripFidelity).
#
# Characterization artifacts are left in CHAR_OUT (default: a temp dir;
# CI sets it to a workspace path and uploads it when the job fails).
set -euo pipefail

WORKDIR="$(mktemp -d)"
CHAR_OUT="${CHAR_OUT:-$WORKDIR/char}"
mkdir -p "$CHAR_OUT"
trap 'rm -rf "$WORKDIR"' EXIT

cd "$(dirname "$0")/.."

INSTS=300000

echo "== building =="
go build -o "$WORKDIR/polysim" ./cmd/polysim
go build -o "$WORKDIR/polychar" ./cmd/polychar

echo "== emit-trace -> polychar -synth =="
"$WORKDIR/polysim" -bench go -insts "$INSTS" -emit-trace "$CHAR_OUT/go.pbt.gz" \
    >"$CHAR_OUT/go.emit.txt"
"$WORKDIR/polychar" -trace "$CHAR_OUT/go.pbt.gz" -insts "$INSTS" -synth \
    >"$CHAR_OUT/go.char.txt"
grep -q "synthesized trace-" "$CHAR_OUT/go.char.txt" \
    || { echo "FAIL: polychar -synth did not report a synthesized stand-in" >&2; exit 1; }
echo "  polychar profiled the exported trace and synthesized a stand-in"

echo "== import-trace closes the loop =="
"$WORKDIR/polysim" -import-trace "$CHAR_OUT/go.pbt.gz" -insts "$INSTS" \
    >"$CHAR_OUT/import_go.txt" 2>&1
grep -q "synthesized trace-" "$CHAR_OUT/import_go.txt" \
    || { echo "FAIL: -import-trace did not report a synthesized stand-in" >&2; exit 1; }
grep -q "IPC" "$CHAR_OUT/import_go.txt" \
    || { echo "FAIL: -import-trace did not produce a simulation report" >&2; exit 1; }
echo "  polysim -import-trace simulated the synthesized stand-in"

echo "== corrupt traces fail closed =="
gunzip -c "$CHAR_OUT/go.pbt.gz" >"$WORKDIR/go.pbt"
head -c 256 "$WORKDIR/go.pbt" >"$WORKDIR/torn.pbt"
if "$WORKDIR/polychar" -trace "$WORKDIR/torn.pbt" >/dev/null 2>"$WORKDIR/torn.err"; then
    echo "FAIL: truncated trace characterized cleanly" >&2
    exit 1
fi
grep -qi "truncat\|corrupt" "$WORKDIR/torn.err" \
    || { echo "FAIL: truncation diagnostic missing:" >&2; cat "$WORKDIR/torn.err" >&2; exit 1; }
printf 'not a trace at all' >"$WORKDIR/junk.pbt"
if "$WORKDIR/polychar" -trace "$WORKDIR/junk.pbt" >/dev/null 2>"$WORKDIR/junk.err"; then
    echo "FAIL: junk bytes characterized cleanly" >&2
    exit 1
fi
grep -qi "magic" "$WORKDIR/junk.err" \
    || { echo "FAIL: bad-magic diagnostic missing:" >&2; cat "$WORKDIR/junk.err" >&2; exit 1; }
echo "  truncation and bad magic both fail with typed diagnostics"

echo "PASS: char smoke (artifacts in $CHAR_OUT)"
