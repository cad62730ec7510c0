#!/usr/bin/env bash
# End-to-end smoke for mcserve (CI-blocking; see .github/workflows/ci.yml):
#
#   1. Build mcgen, mcdebug, and mcserve; generate the F-Z dataset.
#   2. Run a gold-labeled CLI session and write its canonical report.
#   3. Start mcserve and drive the same session over HTTP with a scripted
#      client (create -> upload -> blocker -> join -> label loop ->
#      finish -> report), asserting status codes and response shapes,
#      including the 4xx contract on out-of-order operations.
#   4. Byte-compare the HTTP canonical report against the CLI's — the
#      transport-determinism acceptance check.
#   5. Start a 15x-scale join and, while it is in flight, read the live
#      progress surface (JSON snapshot + one SSE `event: progress`
#      frame, disconnecting mid-stream), then SIGTERM the server: the
#      join must still answer 200 (graceful drain), the process must
#      exit 0, and the ledger must hold one runlog record per completed
#      session.
#   6. Flight recorder: /debug/flightrecord must answer a parseable dump
#      while the server is up; the SIGTERM drain auto-dump must carry
#      the in-flight join's request event (checked by the client while
#      the join is running); the final close dump must survive on disk
#      with the completed join event.
#
# On failure, set MCSERVE_SMOKE_ARTIFACTS to a directory to keep the
# flight dumps, server log, and ledger for post-mortem (CI uploads them
# as a workflow artifact).
set -euo pipefail

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
SRV_PID=""
cleanup() {
    rc=$?
    [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
    if [ "$rc" != 0 ] && [ -n "${MCSERVE_SMOKE_ARTIFACTS:-}" ]; then
        mkdir -p "$MCSERVE_SMOKE_ARTIFACTS"
        for f in flight.json flight_drain.json mcserve.log ledger.jsonl; do
            [ -f "$TMP/$f" ] && cp -f "$TMP/$f" "$MCSERVE_SMOKE_ARTIFACTS/" || true
        done
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

PORT="${MCSERVE_SMOKE_PORT:-18642}"
BASE="http://127.0.0.1:$PORT"

echo "== build"
go build -o "$TMP" ./cmd/mcgen ./cmd/mcdebug ./cmd/mcserve

echo "== generate datasets"
"$TMP/mcgen" -dataset F-Z -out "$TMP"
mkdir -p "$TMP/big"
"$TMP/mcgen" -dataset F-Z -scale 15 -out "$TMP/big"

echo "== CLI reference session"
"$TMP/mcdebug" -a "$TMP/F-Z-A.csv" -b "$TMP/F-Z-B.csv" -gold "$TMP/F-Z-gold.csv" \
    -drop 'name_jac_word<0.4' -k 200 -n 10 -seed 1 -workers 1 \
    -canonical -report "$TMP/cli_report.json" >/dev/null

echo "== start mcserve"
"$TMP/mcserve" -addr "127.0.0.1:$PORT" -ledger "$TMP/ledger.jsonl" \
    -flight-dump "$TMP/flight.json" \
    2>"$TMP/mcserve.log" &
SRV_PID=$!

up=0
for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then up=1; break; fi
    sleep 0.1
done
if [ "$up" != 1 ]; then
    echo "mcserve did not come up" >&2
    cat "$TMP/mcserve.log" >&2
    exit 1
fi
curl -fsS "$BASE/readyz" >/dev/null
curl -fsS "$BASE/metrics" | grep -q '^mc_serve_sessions_live' \
    || { echo "missing mc_serve_sessions_live on /metrics" >&2; exit 1; }
curl -fsS "$BASE/debug/flightrecord" | grep -q '"schema": "mc.flightrecord/v1"' \
    || { echo "/debug/flightrecord did not answer a flight-record dump" >&2; exit 1; }

echo "== scripted HTTP session + SIGTERM drain"
python3 scripts/smoke_mcserve_client.py \
    "$BASE" "$TMP" "$SRV_PID" "$TMP/http_report.json"

echo "== byte-compare HTTP report against CLI report"
cmp "$TMP/cli_report.json" "$TMP/http_report.json" \
    || { echo "HTTP canonical report differs from CLI report" >&2; exit 1; }

echo "== graceful exit"
rc=0
wait "$SRV_PID" || rc=$?
SRV_PID=""
if [ "$rc" != 0 ]; then
    echo "mcserve exited $rc after SIGTERM, want 0" >&2
    cat "$TMP/mcserve.log" >&2
    exit 1
fi

echo "== flight-record auto-dumps"
# The drain-time dump was verified (and preserved) by the client while
# the join was still in flight; re-assert the preserved copy here.
if [ ! -f "$TMP/flight_drain.json" ]; then
    echo "client did not preserve the SIGTERM drain flight dump" >&2
    exit 1
fi
grep -q '"route": "join"' "$TMP/flight_drain.json" \
    || { echo "drain flight dump lacks the in-flight join's request event" >&2
         cat "$TMP/flight_drain.json" >&2; exit 1; }
# The close-time dump overwrites the drain dump on clean exit: the
# completed story, with the join as a finished request event.
if [ ! -f "$TMP/flight.json" ]; then
    echo "mcserve exited without writing the final flight dump" >&2
    exit 1
fi
grep -q '"reason": "close"' "$TMP/flight.json" \
    || { echo "final flight dump is not the close dump" >&2
         cat "$TMP/flight.json" >&2; exit 1; }
grep -q '"route": "join"' "$TMP/flight.json" \
    || { echo "final flight dump lacks the join request event" >&2
         cat "$TMP/flight.json" >&2; exit 1; }

records=$(grep -c '"tool":"mcserve"' "$TMP/ledger.jsonl")
if [ "$records" != 2 ]; then
    echo "ledger has $records mcserve records, want 2 (one per completed session)" >&2
    cat "$TMP/ledger.jsonl" >&2
    exit 1
fi

echo "mcserve smoke: OK"
