#!/usr/bin/env bash
# chaos_smoke.sh — end-to-end robustness smoke test.
#
# Four independent checks:
#   1. Micro-architectural chaos: every deterministic fault the injector
#      can plant (rename bit flips, dropped wakeups, free-list corruption,
#      CTX-tag flips) surfaces as a typed *pipeline.MachineCheckError under
#      the invariant auditor — never a raw crash (pipeline's fault tests and
#      the seeded chaos tests in internal/faultinject).
#   2. Determinism: experiment output with the auditor off is byte-identical
#      to the committed golden table, and turning the auditor on changes
#      nothing (auditing is observation-only).
#   3. Crash containment: a polyserve worker panicking repeatedly fails only
#      its own jobs; the service stays healthy, and the offending request is
#      quarantined (HTTP 403 + /v1/quarantine) after 3 crashes, polyserve's
#      fixed threshold.
#   4. Journal recovery: a restart over a journal with a torn (half-written)
#      record resumes every intact record and counts the damage in
#      journal_dropped, instead of failing startup or losing jobs.
set -euo pipefail

PORT="${PORT:-18090}"
BASE="http://127.0.0.1:${PORT}/v1"
WORKDIR="$(mktemp -d)"
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

cd "$(dirname "$0")/.."

echo "== building =="
go build -o "$WORKDIR/polyserve" ./cmd/polyserve
go build -o "$WORKDIR/experiments" ./cmd/experiments

echo "== 1. injected micro-architectural faults become machine checks =="
go test -count=1 -run 'TestInjectedFaultsYieldMachineChecks|TestForeignPanicContained' ./internal/pipeline
go test -count=1 ./internal/faultinject

echo "== 2. audit-off output is bit-identical to the committed golden =="
"$WORKDIR/experiments" -exp table1 -bench compress -insts 50000 -audit off | sed '1d;$d' > "$WORKDIR/off.txt"
if ! diff -u scripts/golden/table1_compress_50k.txt "$WORKDIR/off.txt"; then
    echo "FAIL: audit-off output drifted from the committed golden" >&2
    exit 1
fi
"$WORKDIR/experiments" -exp table1 -bench compress -insts 50000 -audit commit | sed '1d;$d' > "$WORKDIR/commit.txt"
if ! diff -u "$WORKDIR/off.txt" "$WORKDIR/commit.txt"; then
    echo "FAIL: enabling the auditor changed simulation output" >&2
    exit 1
fi
echo "golden match (audit off == audit commit == committed golden)"

wait_healthy() {
    for i in $(seq 1 50); do
        if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    echo "server did not come up" >&2
    exit 1
}

stat_field() { # stat_field <name>
    curl -fsS "$BASE/stats" | sed -n "s/.*\"$1\": \([0-9]*\).*/\1/p"
}

JOURNAL="$WORKDIR/polyserve.journal"

echo "== 3. worker panics are contained and the request is quarantined =="
"$WORKDIR/polyserve" -addr "127.0.0.1:$PORT" -journal "$JOURNAL" \
    -chaos-panic boom &
SERVER_PID=$!
wait_healthy
echo "healthz ok"

CHAOS_REQ='{"configs":[{"name":"mono","model":"monopath"}],"title":"boom sweep","benchmarks":["compress"],"insts":10000}'

for n in 1 2 3; do
    ID=$(curl -fsS -X POST "$BASE/jobs" -d "$CHAOS_REQ" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
    [ -n "$ID" ] || { echo "no job id on chaos submit $n" >&2; exit 1; }
    for i in $(seq 1 100); do
        STATE=$(curl -fsS "$BASE/jobs/$ID" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
        [ "$STATE" = failed ] && break
        if [ "$STATE" = done ]; then echo "chaos job $n finished instead of crashing" >&2; exit 1; fi
        sleep 0.1
    done
    [ "$STATE" = failed ] || { echo "chaos job $n never failed (state: $STATE)" >&2; exit 1; }
    # The panic must have been contained: the process is still serving.
    curl -fsS "$BASE/healthz" >/dev/null || { echo "server died after panic $n" >&2; exit 1; }
    echo "worker panic $n contained, job $ID failed, server healthy"
done

HTTP_CODE=$(curl -s -o "$WORKDIR/quarantined.json" -w '%{http_code}' -X POST "$BASE/jobs" -d "$CHAOS_REQ")
if [ "$HTTP_CODE" != 403 ]; then
    echo "FAIL: 4th chaos submission got HTTP $HTTP_CODE, want 403: $(cat "$WORKDIR/quarantined.json")" >&2
    exit 1
fi
grep -q quarantine "$WORKDIR/quarantined.json" || { echo "403 body does not mention quarantine" >&2; exit 1; }
curl -fsS "$BASE/quarantine" > "$WORKDIR/qlist.json"
grep -q '"quarantined": true' "$WORKDIR/qlist.json" || { echo "quarantine list missing the offender: $(cat "$WORKDIR/qlist.json")" >&2; exit 1; }
PANICS=$(stat_field worker_panics)
[ "${PANICS:-0}" -ge 3 ] || { echo "worker_panics=$PANICS, want >= 3" >&2; exit 1; }
echo "4th submission refused with 403; quarantine listed; worker_panics=$PANICS"

# A healthy request must still run to completion on the same server.
OK_REQ='{"configs":[{"name":"mono","model":"monopath"}],"benchmarks":["compress"],"insts":10000}'
ID=$(curl -fsS -X POST "$BASE/jobs" -d "$OK_REQ" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
for i in $(seq 1 300); do
    STATE=$(curl -fsS "$BASE/jobs/$ID" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
    [ "$STATE" = done ] && break
    case "$STATE" in failed|cancelled) echo "healthy job $STATE" >&2; exit 1 ;; esac
    sleep 0.1
done
[ "$STATE" = done ] || { echo "healthy job did not finish" >&2; exit 1; }
echo "healthy job still completes alongside the quarantine"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
unset SERVER_PID
echo "clean SIGTERM drain"

echo "== 4. torn journal: restart resumes intact records, drops the tail =="
# Two intact checksummed records plus a third cut off mid-write.
python3 - "$JOURNAL" <<'EOF'
import json, sys, zlib

def record(id):
    payload = json.dumps({
        "id": id,
        "request": {"configs": [{"name": "mono", "model": "monopath"}],
                    "benchmarks": ["compress"], "insts": 10000},
        "submitted_at": "2026-08-06T00:00:00Z",
    }, separators=(",", ":")).encode()
    return b"%08x " % zlib.crc32(payload) + payload + b"\n"

full = record("job-000101") + record("job-000102")
torn = record("job-000103")
with open(sys.argv[1], "wb") as f:
    f.write(full + torn[:len(torn) // 2])
EOF

"$WORKDIR/polyserve" -addr "127.0.0.1:$PORT" -journal "$JOURNAL" &
SERVER_PID=$!
wait_healthy

RESUMED=$(stat_field journal_resumed)
DROPPED=$(stat_field journal_dropped)
[ "${RESUMED:-0}" = 2 ] || { echo "journal_resumed=$RESUMED, want 2" >&2; exit 1; }
[ "${DROPPED:-0}" = 1 ] || { echo "journal_dropped=$DROPPED, want 1" >&2; exit 1; }
echo "resumed 2 intact records, dropped 1 torn record"

# The resumed jobs must actually finish under their journaled IDs.
for ID in job-000101 job-000102; do
    for i in $(seq 1 300); do
        STATE=$(curl -fsS "$BASE/jobs/$ID" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
        [ "$STATE" = done ] && break
        case "$STATE" in failed|cancelled) echo "resumed job $ID $STATE" >&2; exit 1 ;; esac
        sleep 0.1
    done
    [ "$STATE" = done ] || { echo "resumed job $ID did not finish" >&2; exit 1; }
done
echo "resumed jobs ran to completion"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
unset SERVER_PID

echo "PASS: chaos smoke"
