#!/usr/bin/env bash
# chaos_smoke.sh — kill -9 crash-recovery smoke for dewrite-serve.
#
# Boots the daemon with the deterministic chaos plan armed and a snapshot
# directory, drives it with the retrying load generator until at least one
# snapshot generation has committed, kills the process with SIGKILL mid-load,
# restarts it over the same directory, and then asserts the production
# story end to end:
#
#   1. /readyz returns 200 only after recovery + scrub complete;
#   2. the restarted daemon reports a nonzero serve_recovery_generation,
#      recovered keys, and zero scrub-dropped keys;
#   3. a clean load run against the recovered daemon finishes with zero
#      failed requests and zero retry give-ups despite armed chaos;
#   4. the books balance: responses the clients received equal the server's
#      serve_requests_total + serve_shed_total - serve_flush_failures_total.
#
# Artifacts (structured chaos logs, metrics scrapes, load summaries) land in
# $ARTIFACT_DIR (default artifacts/chaos) for post-mortem inspection.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=127.0.0.1:17420
METRICS=127.0.0.1:19420
CHAOS_SEED=1234
ART="${ARTIFACT_DIR:-artifacts/chaos}"
WORK="$(mktemp -d)"
SNAP="$WORK/snap"
mkdir -p "$ART" "$SNAP"

SERVE_PID=""
LOAD_PID=""
cleanup() {
  [ -n "$LOAD_PID" ] && kill -9 "$LOAD_PID" 2>/dev/null || true
  [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "chaos_smoke: FAIL: $*" >&2
  exit 1
}

scrape() { # scrape FILE — snapshot /metrics, tolerate transient errors
  curl -fsS "http://$METRICS/metrics" -o "$1" 2>/dev/null
}

metric_sum() { # metric_sum FILE PREFIX — sum every sample of one family
  awk -v pfx="$2" '$1 ~ "^"pfx"(\\{|$)" { s += $2 } END { printf "%d\n", s }' "$1"
}

wait_ready() { # wait_ready SECONDS — poll /readyz until 200
  for _ in $(seq 1 $(( $1 * 10 ))); do
    if curl -fsS "http://$METRICS/readyz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  return 1
}

echo "chaos_smoke: building dewrite-serve"
go build -o "$WORK/dewrite-serve" ./cmd/dewrite-serve

start_server() { # start_server LOGFILE
  "$WORK/dewrite-serve" -addr "$ADDR" -metrics "$METRICS" \
    -shards 4 -lines 16384 -advance-every 64 \
    -snapshot-dir "$SNAP" -snapshot-every 2 -snapshot-keep 3 \
    -chaos "$CHAOS_SEED" -log "$ART/$1" -log-level debug &
  SERVE_PID=$!
}

# --- Phase 1: crash under load, after at least one committed snapshot -------
start_server serve-crash.log
wait_ready 30 || fail "first boot never became ready"

"$WORK/dewrite-serve" -load "$ADDR" -load-requests 200000 -load-conns 4 \
  -load-seed 7 -load-deadline 5s >"$ART/load-crash.json" 2>/dev/null &
LOAD_PID=$!

committed=0
for _ in $(seq 1 300); do
  if scrape "$WORK/m.txt"; then
    snaps=$(metric_sum "$WORK/m.txt" dewrite_serve_snapshots_total)
    if [ "$snaps" -ge 1 ]; then committed=1; break; fi
  fi
  kill -0 "$LOAD_PID" 2>/dev/null || fail "load generator exited before a snapshot committed"
  sleep 0.1
done
[ "$committed" -eq 1 ] || fail "no snapshot committed within 30s under load"

echo "chaos_smoke: snapshot committed; delivering SIGKILL mid-load"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
kill -9 "$LOAD_PID" 2>/dev/null || true
wait "$LOAD_PID" 2>/dev/null || true
LOAD_PID=""

ls "$SNAP"/gen-*/manifest.json >/dev/null 2>&1 || fail "no committed generation on disk after crash"

# --- Phase 2: restart over the crash debris, recovery must be visible -------
echo "chaos_smoke: restarting over $SNAP"
start_server serve-recover.log
wait_ready 30 || fail "restarted daemon never became ready"

scrape "$ART/metrics-post-recovery.txt" || fail "post-recovery scrape failed"
gen=$(metric_sum "$ART/metrics-post-recovery.txt" dewrite_serve_recovery_generation)
keys=$(metric_sum "$ART/metrics-post-recovery.txt" dewrite_serve_recovery_keys)
dropped=$(metric_sum "$ART/metrics-post-recovery.txt" dewrite_serve_recovery_dropped_keys)
[ "$gen" -ge 1 ] || fail "serve_recovery_generation is $gen, want >= 1"
[ "$keys" -ge 1 ] || fail "serve_recovery_keys is $keys, want >= 1"
[ "$dropped" -eq 0 ] || fail "scrub dropped $dropped keys from a committed snapshot"
echo "chaos_smoke: recovered generation $gen ($keys keys, $dropped dropped)"

# --- Phase 3: clean load against the recovered daemon, books must balance ---
"$WORK/dewrite-serve" -load "$ADDR" -load-requests 2048 -load-conns 4 \
  -load-seed 11 -load-deadline 5s >"$ART/load-clean.json"

failed=$(jq -r .failed "$ART/load-clean.json")
giveups=$(jq -r .stats.GiveUps "$ART/load-clean.json")
received=$(jq -r .stats.Received "$ART/load-clean.json")
reconnects=$(jq -r .stats.Reconnects "$ART/load-clean.json")
[ "$failed" -eq 0 ] || fail "clean load reported $failed failed requests"
[ "$giveups" -eq 0 ] || fail "retry client gave up $giveups times"
[ "$received" -ge 2048 ] || fail "clients received only $received responses"

scrape "$ART/metrics-post-load.txt" || fail "post-load scrape failed"
served=$(metric_sum "$ART/metrics-post-load.txt" dewrite_serve_requests_total)
shed=$(metric_sum "$ART/metrics-post-load.txt" dewrite_serve_shed_total)
unflushed=$(metric_sum "$ART/metrics-post-load.txt" dewrite_serve_flush_failures_total)
if [ "$received" -ne $((served + shed - unflushed)) ]; then
  fail "books out of balance: clients received $received, server served $served + shed $shed - flush failures $unflushed"
fi
echo "chaos_smoke: books balance (received=$received served=$served shed=$shed unflushed=$unflushed reconnects=$reconnects)"

# --- Clean shutdown ----------------------------------------------------------
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || fail "daemon exited nonzero on SIGTERM"
SERVE_PID=""

echo "chaos_smoke: PASS"
