#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the polyserve service.
#
# Boots polyserve on a local port, submits the table1 experiment (compress
# only, 50k instructions) through the HTTP API, polls it to completion, and
# checks that:
#   1. the service's rendered table is byte-identical to cmd/experiments
#      output for the same experiment and options,
#   2. resubmitting the same job is served from the memoization cache
#      (observed via the /v1/stats hit counter), and
#   3. a configs job streams its cells through /v1/jobs/{id}/cells and
#      shows up in the /metrics shard families,
# then shuts the server down with SIGTERM and expects a clean drain.
set -euo pipefail

PORT="${PORT:-18080}"
BASE="http://127.0.0.1:${PORT}/v1"
WORKDIR="$(mktemp -d)"
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

cd "$(dirname "$0")/.."

echo "== building =="
go build -o "$WORKDIR/polyserve" ./cmd/polyserve
go build -o "$WORKDIR/experiments" ./cmd/experiments

echo "== starting polyserve on :$PORT =="
"$WORKDIR/polyserve" -addr "127.0.0.1:$PORT" -journal "$WORKDIR/polyserve.journal" &
SERVER_PID=$!

for i in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if [ "$i" = 50 ]; then echo "server did not come up" >&2; exit 1; fi
    sleep 0.2
done
echo "healthz ok"

REQ='{"experiment":"table1","benchmarks":["compress"],"insts":50000}'

submit_and_wait() {
    local id
    id=$(curl -fsS -X POST "$BASE/jobs" -d "$REQ" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
    [ -n "$id" ] || { echo "no job id in submit response" >&2; exit 1; }
    for i in $(seq 1 300); do
        state=$(curl -fsS "$BASE/jobs/$id" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
        case "$state" in
            done) echo "$id"; return 0 ;;
            failed|cancelled) echo "job $id $state" >&2; exit 1 ;;
        esac
        sleep 0.2
    done
    echo "job $id did not finish" >&2
    exit 1
}

echo "== cold run through the service =="
ID1=$(submit_and_wait)
curl -fsS "$BASE/results/$ID1" | python3 -c 'import json,sys; sys.stdout.write(json.load(sys.stdin)["text"])' > "$WORKDIR/served.txt"

echo "== same experiment through cmd/experiments =="
"$WORKDIR/experiments" -exp table1 -bench compress -insts 50000 > "$WORKDIR/cli-raw.txt"
# Strip the CLI's "=== name (X.Xs) ===" header and trailing blank line; the
# remaining bytes are the experiment's rendered table.
sed '1d;$d' "$WORKDIR/cli-raw.txt" > "$WORKDIR/cli.txt"

if ! diff -u "$WORKDIR/cli.txt" "$WORKDIR/served.txt"; then
    echo "FAIL: service output differs from cmd/experiments" >&2
    exit 1
fi
echo "byte-identical to cmd/experiments"

echo "== warm run must hit the cache =="
ID2=$(submit_and_wait)
STATS=$(curl -fsS "$BASE/stats")
HITS=$(echo "$STATS" | sed -n 's/.*"cache_hits": \([0-9]*\).*/\1/p')
if [ -z "$HITS" ] || [ "$HITS" -lt 1 ]; then
    echo "FAIL: expected cache hits after resubmission; stats: $STATS" >&2
    exit 1
fi
echo "cache hits: $HITS"

echo "== configs job cell stream =="
# Four cells: two by model name and two as inline polypath/v2 config
# documents — the TAGE machine (exercising the open predictor registry
# end-to-end through the wire format) and an adaptive-policy machine (the
# fig-adaptive online bandit, exercising the policy registry and the v2
# policy field over the wire).
TAGE_V2='{"schema":"polypath/v2","mode":"polypath","fetch_width":8,"rename_width":8,"commit_width":8,"front_end_stages":5,"window_size":256,"num_int_type0":4,"num_int_type1":4,"num_fp_add":4,"num_fp_mul":4,"num_mem_ports":4,"phys_regs":352,"checkpoints":64,"ctx_history_width":8,"max_paths":24,"max_divergences":0,"predictor":{"kind":"tage","params":{"base_bits":10,"idx_bits":5,"max_hist":64,"min_hist":4,"tables":4,"tag_bits":11}},"confidence":{"kind":"jrs","index_bits":11,"ctr_bits":1,"threshold":0,"enhanced_index":true,"adaptive_min_pvn":0,"adaptive_window":0},"fetch_policy":"exponential","enable_dcache":false,"dcache":{"sets":0,"ways":0,"line_words":0},"dcache_miss_latency":0,"enable_icache":false,"icache":{"sets":0,"ways":0,"line_words":0},"icache_miss_latency":0,"btb_bits":9,"ras_depth":16,"enable_mrc":false,"mrc_bits":8,"resolution_buses":0,"non_speculative_history":false,"max_insts":0}'
ADAPTIVE_V2='{"schema":"polypath/v2","mode":"polypath","fetch_width":4,"rename_width":8,"commit_width":8,"front_end_stages":5,"window_size":256,"num_int_type0":4,"num_int_type1":4,"num_fp_add":4,"num_fp_mul":4,"num_mem_ports":4,"phys_regs":352,"checkpoints":64,"ctx_history_width":8,"max_paths":24,"max_divergences":0,"predictor":{"kind":"gshare","params":{"hist_bits":11}},"confidence":{"kind":"jrs","index_bits":11,"ctr_bits":1,"threshold":0,"enhanced_index":true,"adaptive_min_pvn":0,"adaptive_window":0},"fetch_policy":"exponential","enable_dcache":false,"dcache":{"sets":0,"ways":0,"line_words":0},"dcache_miss_latency":0,"enable_icache":false,"icache":{"sets":0,"ways":0,"line_words":0},"icache_miss_latency":0,"btb_bits":9,"ras_depth":16,"enable_mrc":false,"mrc_bits":8,"resolution_buses":0,"non_speculative_history":false,"max_insts":0,"policy":{"kind":"online","epoch_cycles":1024,"candidates":[{"conf_threshold":0,"max_divergences":0,"fetch_width":0},{"conf_threshold":0,"max_divergences":-1,"fetch_width":0}],"params":{"ema_milli":400,"explore_every":6,"hysteresis_milli":20,"shift_milli":120,"vifr_epochs":0,"vifr_fetch":4,"vifr_lowconf_milli":600}}}'
REQ='{"configs":[{"name":"monopath","model":"monopath"},{"name":"SEE","model":"see"},{"name":"TAGE","config":'"$TAGE_V2"'},{"name":"adaptive","config":'"$ADAPTIVE_V2"'}],"benchmarks":["compress"],"insts":50000,"title":"smoke sweep (IPC)"}'
JOB_ID=$(submit_and_wait)
CELLS=$(curl -fsS "$BASE/jobs/$JOB_ID/cells?after=0" | python3 -c 'import json,sys; p=json.load(sys.stdin); print(len(p["cells"]), p["done_cells"], p["total_cells"])')
if [ "$CELLS" != "4 4 4" ]; then
    echo "FAIL: job $JOB_ID streamed cells/done/total $CELLS, expected 4 4 4" >&2
    exit 1
fi
echo "job streamed 4 of 4 cells"
# Fetch to a file before grepping: `curl | grep -q` under pipefail is
# racy — grep exits on the first match, and curl fails with a write
# error if it had more output in flight.
curl -fsS "http://127.0.0.1:${PORT}/metrics" > "$WORKDIR/metrics.txt"
if ! grep -q '^polyserve_cells_inflight 0$' "$WORKDIR/metrics.txt" ||
    ! grep -q '^polyserve_shard_cell_duration_seconds_count{shard=' "$WORKDIR/metrics.txt"; then
    echo "FAIL: /metrics does not report the job's cells by shard" >&2
    exit 1
fi
echo "job cells visible in /metrics"

echo "== graceful shutdown =="
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
unset SERVER_PID

echo "PASS: polyserve smoke"
