#!/usr/bin/env bash
# Chaos soak (ISSUE 10): prove the crash-safety layer end to end by
# actually crashing it.
#
#   Phase 1  SIGKILL a checkpointing batch run mid-suite, resume it, and
#            byte-compare the final report against a fresh-process
#            serial oracle — including after deliberately corrupting a
#            journal entry (the torn-write window).
#   Phase 2  SIGKILL the daemon mid-request, restart it on the same
#            port, and let the retrying client (backoff + idempotency
#            key) ride through; the response must be byte-identical to
#            the serial oracle, and a replayed request_id must hit the
#            idempotency cache instead of re-executing.
#   Phase 3  TR_FAULT storm: cycle every registered fault site under
#            load; each run must either pass clean (site not on this
#            workload's path) or fail structurally (exit 3, a
#            fault_injected error object marked retryable) — never
#            crash. The server.request site additionally proves the
#            client retries through a one-shot injected daemon fault.
#
# Usage: chaos_soak.sh <tr_opt> [workdir]
# With a workdir argument the journal/logs survive for CI artifacts.
set -euo pipefail

TR_OPT="$1"
if [ $# -ge 2 ]; then
  WORK="$2"
  mkdir -p "$WORK"
  KEEP_WORK=1
else
  WORK="$(mktemp -d)"
  KEEP_WORK=0
fi

SERVER_PID=""
VICTIM_PID=""
cleanup() {
  for pid in "$SERVER_PID" "$VICTIM_PID"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2> /dev/null; then
      kill -TERM "$pid" 2> /dev/null || true
      for _ in $(seq 1 50); do
        kill -0 "$pid" 2> /dev/null || break
        sleep 0.1
      done
      kill -KILL "$pid" 2> /dev/null || true
    fi
    [ -n "$pid" ] && wait "$pid" 2> /dev/null || true
  done
  [ "$KEEP_WORK" -eq 0 ] && rm -rf "$WORK"
  return 0
}
trap cleanup EXIT

fail() {
  echo "chaos_soak: FAIL: $*" >&2
  exit 1
}

# The soak workload: slow enough (the budgeted greedy walk over three
# serial passes of table3 + scaled) that a SIGKILL lands mid-suite,
# deterministic output under --no-timing --no-cache-stats. Three
# passes keep the full report, per-gate configuration arrays included,
# under the wire's 16 MiB frame limit. Keep flags identical across
# oracle/crash/resume — the checkpoint manifest pins them.
WORKLOAD=()
for _ in 1 2 3; do WORKLOAD+=(--suite table3 --suite scaled); done
WORKLOAD+=(--delay-budget 0.05 --jobs 1 --threads-per-circuit 1
  --no-timing --no-cache-stats)

echo "chaos_soak: oracle run (serial, fresh process)"
"$TR_OPT" "${WORKLOAD[@]}" > "$WORK/oracle.json" 2> "$WORK/oracle.log"

# ---------------------------------------------------------------------
# Phase 1: SIGKILL mid-batch, then resume.
# ---------------------------------------------------------------------
echo "chaos_soak: phase 1 - SIGKILL mid-batch + resume"
CKPT="$WORK/checkpoint"
"$TR_OPT" "${WORKLOAD[@]}" --checkpoint "$CKPT" \
  > "$WORK/crashed.json" 2> "$WORK/crashed.log" &
VICTIM_PID=$!

# Deterministic kill point: wait until at least one circuit entry is
# durable, then SIGKILL — no signal handler gets to run, exactly the
# crash the journal protects against.
for _ in $(seq 1 300); do
  if [ -n "$(ls "$CKPT"/circuit-*.jnl 2> /dev/null)" ]; then break; fi
  kill -0 "$VICTIM_PID" 2> /dev/null \
    || fail "batch run exited before journaling anything (too fast?)"
  sleep 0.1
done
[ -n "$(ls "$CKPT"/circuit-*.jnl 2> /dev/null)" ] \
  || fail "no journal entry appeared within 30s"
kill -KILL "$VICTIM_PID"
wait "$VICTIM_PID" 2> /dev/null || true
VICTIM_PID=""

ENTRIES=$(ls "$CKPT"/circuit-*.jnl | wc -l)
TOTAL=$(grep -c '"status"' "$WORK/oracle.json" || true)
echo "chaos_soak: killed with $ENTRIES journal entries durable"

# Corrupt one survivor: truncate its tail (torn write). The resume must
# detect it, warn, and re-optimize that circuit.
DAMAGED="$(ls "$CKPT"/circuit-*.jnl | head -1)"
SIZE=$(wc -c < "$DAMAGED")
head -c $((SIZE / 2)) "$DAMAGED" > "$DAMAGED.tmp" && mv "$DAMAGED.tmp" "$DAMAGED"

"$TR_OPT" "${WORKLOAD[@]}" --checkpoint "$CKPT" --resume \
  > "$WORK/resumed.json" 2> "$WORK/resumed.log"
grep -q "journal .* damaged" "$WORK/resumed.log" \
  || fail "corrupt journal entry was not reported (resumed.log)"
diff "$WORK/oracle.json" "$WORK/resumed.json" > /dev/null \
  || fail "resumed output diverged from the oracle (phase 1)"
echo "chaos_soak: phase 1 OK (resume byte-identical, corruption detected)"

# ---------------------------------------------------------------------
# Phase 2: SIGKILL the daemon mid-request; the client retries through.
# ---------------------------------------------------------------------
echo "chaos_soak: phase 2 - daemon SIGKILL + client retry-through"
start_daemon() {
  "$TR_OPT" --serve --port "$1" --port-file "$WORK/port" "${@:2}" \
    >> "$WORK/daemon_metrics.json" 2>> "$WORK/daemon.log" &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$WORK/port" ] && return 0
    kill -0 "$SERVER_PID" 2> /dev/null \
      || fail "daemon exited before binding (daemon.log)"
    sleep 0.1
  done
  fail "daemon never wrote its port file"
}

rm -f "$WORK/port"
start_daemon 0
PORT="$(cat "$WORK/port")"

"$TR_OPT" --connect "127.0.0.1:$PORT" "${WORKLOAD[@]}" \
  --retries 20 --retry-base-ms 250 --timeout-ms 20000 \
  --request-id chaos-soak-1 \
  > "$WORK/client.json" 2> "$WORK/client.log" &
VICTIM_PID=$!

# Kill once the request is demonstrably mid-flight (first progress
# frame observed), restart on the same port while the client backs off.
for _ in $(seq 1 300); do
  grep -q '"type": "progress"' "$WORK/client.log" 2> /dev/null && break
  kill -0 "$VICTIM_PID" 2> /dev/null || fail "client died early (client.log)"
  sleep 0.1
done
grep -q '"type": "progress"' "$WORK/client.log" \
  || fail "no progress frame within 30s"
kill -KILL "$SERVER_PID"
wait "$SERVER_PID" 2> /dev/null || true
SERVER_PID=""
echo "chaos_soak: daemon SIGKILLed mid-request, restarting on port $PORT"
rm -f "$WORK/port"
start_daemon "$PORT"

wait "$VICTIM_PID" || fail "client did not retry through the restart (client.log)"
VICTIM_PID=""
grep -q "retry" "$WORK/client.log" || fail "client never reported a retry"
diff "$WORK/oracle.json" "$WORK/client.json" > /dev/null \
  || fail "retried response diverged from the oracle (phase 2)"

# Idempotent replay: the same request_id again must not re-execute —
# byte-identical response straight from the replay cache.
"$TR_OPT" --connect "127.0.0.1:$PORT" "${WORKLOAD[@]}" \
  --request-id chaos-soak-1 > "$WORK/replayed.json" 2> /dev/null
diff "$WORK/client.json" "$WORK/replayed.json" > /dev/null \
  || fail "replayed response diverged"
"$TR_OPT" --connect "127.0.0.1:$PORT" --shutdown 2> /dev/null
wait "$SERVER_PID" || fail "daemon drain failed"
SERVER_PID=""
grep -q '"replayed": 1' "$WORK/daemon_metrics.json" \
  || fail "metrics did not count the idempotent replay"
echo "chaos_soak: phase 2 OK (retry-through + idempotent replay)"

# ---------------------------------------------------------------------
# Phase 3: TR_FAULT storm over the whole registered-site registry.
# ---------------------------------------------------------------------
echo "chaos_soak: phase 3 - TR_FAULT storm"
SITES=(batch.circuit opt.score celllib.characterize server.request
  parse.blif parse.blif_mapped parse.verilog sim.replicate)
for site in "${SITES[@]}"; do
  STATUS=0
  TR_FAULT="$site" "$TR_OPT" --suite classic --jobs 2 --no-timing \
    --no-cache-stats > "$WORK/fault_$site.json" \
    2> "$WORK/fault_$site.log" || STATUS=$?
  if [ "$STATUS" -ne 0 ] && [ "$STATUS" -ne 3 ]; then
    fail "TR_FAULT=$site: exit $STATUS (crash or misclassified failure)"
  fi
  if [ "$STATUS" -eq 3 ]; then
    grep -q '"code": "fault_injected"' "$WORK/fault_$site.json" \
      || fail "TR_FAULT=$site: no structured fault_injected error"
    grep -q '"retryable": true' "$WORK/fault_$site.json" \
      || fail "TR_FAULT=$site: injected fault not marked retryable"
  fi
  echo "chaos_soak:   site $site -> exit $STATUS"
done

# server.request through the daemon: the fault is one-shot, so a client
# with one retry must fail the first attempt and succeed the second.
rm -f "$WORK/port"
TR_FAULT="server.request" start_daemon 0
# Bash keeps a call-prefix assignment alive after a *function* returns;
# drop it so the oracle rerun below is unpoisoned (the site is
# daemon-only, but explicit beats subtle).
unset TR_FAULT
PORT="$(cat "$WORK/port")"
"$TR_OPT" --connect "127.0.0.1:$PORT" --suite classic --no-timing \
  --retries 3 --retry-base-ms 50 \
  > "$WORK/storm_client.json" 2> "$WORK/storm_client.log" \
  || fail "client did not retry through the injected daemon fault"
grep -q "retry 1" "$WORK/storm_client.log" \
  || fail "expected exactly one retry through the injected fault"
"$TR_OPT" --suite classic --no-timing --no-cache-stats \
  > "$WORK/storm_oracle.json"
diff "$WORK/storm_oracle.json" "$WORK/storm_client.json" > /dev/null \
  || fail "post-fault response diverged from the oracle"
"$TR_OPT" --connect "127.0.0.1:$PORT" --shutdown 2> /dev/null
wait "$SERVER_PID" || fail "storm daemon drain failed"
SERVER_PID=""
echo "chaos_soak: phase 3 OK (8-site storm + retry through injected fault)"

echo "chaos_soak: PASS (oracle $TOTAL circuits, crash at $ENTRIES entries)"
