#!/usr/bin/env bash
# char_smoke.sh — end-to-end smoke test of the trace ingestion + workload
# characterization suite (internal/btrace, cmd/polychar).
#
# Checks, in order:
#   1. the Figure 8 placement table (polychar -all) is byte-identical to
#      the committed golden scripts/golden/fig8_char_300k.txt, and
#      byte-identical across shard counts (-j 1 vs -j 4),
#   2. the round-trip fidelity gate: every Table 1 stand-in is exported
#      to a PBT1 trace by polysim -emit-trace, re-imported and profiled
#      by polychar -trace, and the synthesized stand-in's gshare
#      misprediction rate matches the trace's within ±10% relative
#      (traces below the 0.5% synthesis floor are exempt, like the
#      TestRoundTripFidelity gate),
#   3. polysim -import-trace simulates a synthesized stand-in end to end,
#   4. corrupt traces fail with a typed diagnostic, not a panic.
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
GOLDEN=scripts/golden/fig8_char_300k.txt

echo "== building =="
go build -o "$WORKDIR/polysim" ./cmd/polysim
go build -o "$WORKDIR/polychar" ./cmd/polychar

echo "== figure 8 placement vs committed golden =="
"$WORKDIR/polychar" -all -insts "$INSTS" -j 4 >"$CHAR_OUT/fig8_char.txt"
if ! diff -u "$GOLDEN" "$CHAR_OUT/fig8_char.txt"; then
    echo "FAIL: placement table diverged from $GOLDEN" >&2
    echo "      (an intentional taxonomy change ships by regenerating it:" >&2
    echo "       go run ./cmd/polychar -all -insts $INSTS -j 4 > $GOLDEN)" >&2
    exit 1
fi
"$WORKDIR/polychar" -all -insts "$INSTS" -j 1 >"$CHAR_OUT/fig8_char_j1.txt"
if ! diff -u "$CHAR_OUT/fig8_char.txt" "$CHAR_OUT/fig8_char_j1.txt"; then
    echo "FAIL: placement table differs between -j 4 and -j 1" >&2
    exit 1
fi
echo "  placement table matches golden and is shard-count independent"

echo "== round-trip fidelity gate: all Table 1 stand-ins =="
for name in compress gcc perl go m88ksim xlisp vortex jpeg; do
    trace="$CHAR_OUT/$name.pbt.gz"
    "$WORKDIR/polysim" -bench "$name" -insts "$INSTS" -emit-trace "$trace" \
        >"$CHAR_OUT/$name.emit.txt"
    "$WORKDIR/polychar" -trace "$trace" -insts "$INSTS" -synth -json \
        >"$CHAR_OUT/$name.char.json" 2>"$CHAR_OUT/$name.char.err"
    python3 - "$name" "$CHAR_OUT/$name.char.json" <<'EOF'
import json, sys

name, path = sys.argv[1], sys.argv[2]
with open(path) as f:
    doc = json.load(f)

rate = doc["rate"]
synth = doc.get("synth")
assert synth, f"{name}: -synth produced no synthesis report"
if rate < 0.005:
    print(f"  {name:10s} trace rate {rate:.4f} below the synthesis floor; gate n/a")
    sys.exit(0)
rel = synth["rel_err"]
line = (f"  {name:10s} trace {rate:.4f}  stand-in {synth['achieved_rate']:.4f}"
        f"  ({100*rel:+.1f}% relative)  class={doc['class']}")
assert abs(rel) <= 0.10, f"{name}: relative error {100*rel:+.1f}% exceeds the ±10% gate\n{line}"
if synth.get("error"):
    raise AssertionError(f"{name}: calibration near-miss: {synth['error']}")
print(line)
EOF
done

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
