#!/usr/bin/env bash
# Overload smoke: boot a deliberately tiny jordd, offer it well past its
# capacity with jordload (retries on, exercising Retry-After backoff), and
# assert the overload-control contract from the outside:
#
#   1. the run sheds (non-zero 429/503) instead of queueing without bound,
#   2. successful requests keep a bounded p99,
#   3. some minimum goodput survives the storm,
#   4. SIGTERM drains cleanly: zero live PDs at the end, "drained" logged.
#
# Usage: scripts/overload_smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-18043}"
ADDR="127.0.0.1:${PORT}"
LOG="$(mktemp)"
trap 'kill "${DPID:-}" 2>/dev/null || true; rm -f "$LOG"' EXIT

go build -o /tmp/jordd-smoke ./cmd/jordd
go build -o /tmp/jordload-smoke ./cmd/jordload

# Tiny worker: 2 executors, JBSQ(1), 4-deep admission, 8-deep queue. At
# 800 rps of 5ms sleeps (~capacity 400 rps even ignoring queueing) this
# MUST shed.
/tmp/jordd-smoke -addr "$ADDR" -executors 2 -jbsq 1 -max-inflight 4 \
  -queue-cap 8 -num-pds 32 -exec-timeout 100ms >"$LOG" 2>&1 &
DPID=$!

for i in $(seq 1 50); do
  curl -fsS "http://${ADDR}/healthz" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && { echo "FAIL: jordd never came up"; cat "$LOG"; exit 1; }
  sleep 0.1
done

# /readyz must be ready before the storm.
curl -fsS "http://${ADDR}/readyz" | grep -q '"ready": true' \
  || { echo "FAIL: /readyz not ready on a fresh daemon"; exit 1; }

# The storm: -max-p99 / -min-ok make jordload itself the assertion. The
# p99 bound is generous (retry waits honor 1s Retry-After hints) — it
# catches multi-second queue collapse, not scheduler jitter.
OUT="$(/tmp/jordload-smoke -addr "$ADDR" -fn sleep -payload 5ms -rps 800 \
  -duration 3s -retries 2 -retry-base 5ms -max-p99 4s -min-ok 50)"
echo "$OUT"

SHED="$(echo "$OUT" | awk '/^shed/ {print $2}')"
[ "${SHED:-0}" -gt 0 ] || { echo "FAIL: no sheds at 2x+ capacity"; exit 1; }

# The daemon survived: still ready, and /statsz agrees it shed. A short
# settle covers the tail of fire-and-forget teardown.
sleep 0.5
STATSZ="$(curl -fsS "http://${ADDR}/statsz")"
echo "$STATSZ" | grep -q '"rejected": [1-9]' \
  || { echo "FAIL: /statsz shows no admission rejections"; exit 1; }
# The shared-state store, when on, holds one resident PD for its lifetime;
# any other live PD is a leak.
WANT_LIVE=0
echo "$STATSZ" | grep -q '"state_enabled": true' && WANT_LIVE=1
echo "$STATSZ" | grep -q "\"live_pds\": ${WANT_LIVE}," \
  || { echo "FAIL: live PDs linger after the storm settled"; exit 1; }

# Clean drain on SIGTERM.
kill -TERM "$DPID"
for i in $(seq 1 100); do
  kill -0 "$DPID" 2>/dev/null || break
  [ "$i" = 100 ] && { echo "FAIL: jordd did not exit after SIGTERM"; cat "$LOG"; exit 1; }
  sleep 0.1
done
DPID=""
grep -q "drained" "$LOG" || { echo "FAIL: no 'drained' in jordd log"; cat "$LOG"; exit 1; }

echo "overload smoke: OK (shed=${SHED})"
