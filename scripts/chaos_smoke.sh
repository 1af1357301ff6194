#!/usr/bin/env bash
# Chaos smoke: start 3 watosd shards + watos-router (replicas=2) as real
# processes and prove the fleet survives churn without touching results —
#   1. the audited replica placement over 3 shards is within the greedy
#      bound (recovery load spread over survivors, max spread <= 1),
#   2. a scatter-gathered Table II sweep completes byte-identically to the
#      in-process sweep while one shard is SIGKILLed holding an accepted leg
#      (`watos -canon` diff, cross-process),
#   3. DELETE /v1/shards drains a survivor: its warm slice streams to the
#      inheritor, which then serves the full sweep with zero cold cache
#      misses (stats-delta assertion).
set -euo pipefail
. "$(dirname "$0")/lib.sh"
build watosd watos-router watos

PORT_A=${PORT_A:-8795}
PORT_B=${PORT_B:-8796}
PORT_C=${PORT_C:-8797}
PORT_R=${PORT_R:-8798}

# wait_idle blocks until a daemon has no queued or running job.
wait_idle() {
  for _ in $(seq 1 600); do
    curl -s "http://127.0.0.1:$1/v1/stats" | python3 -c "
import json, sys
s = json.load(sys.stdin)
sys.exit(0 if s['queue_depth'] == 0 and s['jobs_in_flight'] == 0 else 1)
" && return 0
    sleep 0.1
  done
  echo "daemon on port $1 never went idle" >&2
  return 1
}

"$BIN/watosd" -addr "127.0.0.1:$PORT_A" -workers 2 & PID_A=$!
"$BIN/watosd" -addr "127.0.0.1:$PORT_B" -workers 2 & PID_B=$!
"$BIN/watosd" -addr "127.0.0.1:$PORT_C" -workers 2 & PID_C=$!
wait_healthy "$PORT_A"
wait_healthy "$PORT_B"
wait_healthy "$PORT_C"

"$BIN/watos-router" -addr "127.0.0.1:$PORT_R" \
  -shards "127.0.0.1:$PORT_A,127.0.0.1:$PORT_B,127.0.0.1:$PORT_C" \
  -replicas 2 -sweep-retries 3 &
wait_healthy "$PORT_R"

echo "== replica placement over 3 shards is within the greedy bound =="
curl -s "http://127.0.0.1:$PORT_R/v1/stats" | python3 -c "
import json, sys
p = json.load(sys.stdin)['placement']
assert p['replicas'] == 2, p
assert p['within_bound'], f'recovery-load spread exceeds the greedy bound: {p}'
assert p['max_spread'] <= 1, p
print('recovery-load rows (buckets per inheritor):', p['rows'])
"

echo "== baseline: in-process Table II sweep =="
"$BIN/watos" -model Llama2-30B -seq 2048 -canon > "$WORK/local-sweep.txt"

echo "== SIGKILL a shard mid-sweep =="
# Hold every shard's single job worker first: a backlog of interactive GA
# jobs on another model dispatches ahead of the sweep's sweep-leg-class
# legs, so a leg a shard accepts stays queued there for seconds — far
# longer than the poll below takes to catch it. Without the hold, a fast
# host finishes the leg inside one poll interval and the kill finds
# nothing to lose.
for P in "$PORT_A" "$PORT_B" "$PORT_C"; do
  for SEED in 1 2 3 4 5 6; do
    curl -sf -X POST -H 'Content-Type: application/json' \
      -d "{\"model\":\"GPT-175B\",\"ga\":true,\"seed\":$SEED}" \
      "http://127.0.0.1:$P/v1/jobs" >/dev/null
  done
done

"$BIN/watos" -model Llama2-30B -seq 2048 \
  -remote "127.0.0.1:$PORT_R" -canon > "$WORK/chaos-sweep.txt" &
SWEEP_PID=$!

# Kill the first shard caught with an accepted sweep leg — the worst
# moment: the leg is accepted and its result is about to be lost with the
# process.
VICTIM_PORT=
for _ in $(seq 1 400); do
  kill -0 "$SWEEP_PID" 2>/dev/null || break
  for P in "$PORT_A" "$PORT_B" "$PORT_C"; do
    if curl -s "http://127.0.0.1:$P/v1/jobs" 2>/dev/null | python3 -c "
import json, sys
jobs = json.load(sys.stdin)
sys.exit(0 if any(j.get('model') == 'Llama2-30B' and j.get('state') in ('queued', 'running') for j in jobs) else 1)
" 2>/dev/null; then
      VICTIM_PORT=$P
      break 2
    fi
  done
  sleep 0.05
done
if [ -z "$VICTIM_PORT" ]; then
  echo "no shard was caught holding a sweep leg before the sweep finished" >&2
  exit 1
fi
case "$VICTIM_PORT" in
  "$PORT_A") kill -9 "$PID_A" ;;
  "$PORT_B") kill -9 "$PID_B" ;;
  "$PORT_C") kill -9 "$PID_C" ;;
esac
echo "SIGKILLed shard on port $VICTIM_PORT mid-leg"

wait "$SWEEP_PID"
cmp "$WORK/chaos-sweep.txt" "$WORK/local-sweep.txt"
echo "sweep byte-identical through the crash ($(wc -c < "$WORK/local-sweep.txt") bytes)"

curl -s "http://127.0.0.1:$PORT_R/v1/stats" | python3 -c "
import json, sys
s = json.load(sys.stdin)
r = s['router']
assert s['healthy_shards'] == 2, f'{s[\"healthy_shards\"]} healthy shards, want 2'
assert s['total_shards'] == 3, s['total_shards']
recovered = r['leg_retries'] + r['failovers'] + r['route_errors']
assert recovered >= 1, f'crash left no failover trace: {r}'
assert s['placement']['within_bound'], s['placement']
print('failover trace:', {k: r[k] for k in ('leg_retries', 'failovers', 'route_errors')})
"

echo "== drain a survivor; the inheritor serves its slice warm =="
SURVIVORS=()
for P in "$PORT_A" "$PORT_B" "$PORT_C"; do
  [ "$P" = "$VICTIM_PORT" ] || SURVIVORS+=("$P")
done
DRAIN_PORT=${SURVIVORS[0]}
KEEP_PORT=${SURVIVORS[1]}
# The hold backlog must be gone before the zero-cold-miss check below.
wait_idle "$DRAIN_PORT"
wait_idle "$KEEP_PORT"

# Re-warm through the router first: cache entries for legs that had already
# finished on the SIGKILLed shard died with it, so one routed sweep over the
# two survivors recomputes them where routing now points. After this, the
# survivors collectively hold the whole sweep warm — which is what makes a
# zero-cold-miss assertion on the drain handoff itself meaningful.
"$BIN/watos" -model Llama2-30B -seq 2048 \
  -remote "127.0.0.1:$PORT_R" -canon > "$WORK/rewarm-sweep.txt"
cmp "$WORK/rewarm-sweep.txt" "$WORK/local-sweep.txt"

BEFORE=$(curl -s "http://127.0.0.1:$KEEP_PORT/v1/stats")
REPORT=$(curl -s -X DELETE -H 'Content-Type: application/json' \
  -d "{\"addr\":\"127.0.0.1:$DRAIN_PORT\"}" "http://127.0.0.1:$PORT_R/v1/shards")
echo "$REPORT" | python3 -c "
import json, sys
rep = json.load(sys.stdin)
assert rep.get('drained'), f'drain degraded: {rep}'
assert rep.get('snapshot_bytes', 0) > 0, rep
inh = rep.get('inheritors') or []
# The SIGKILLed shard is still a designated inheritor but must be skipped,
# not pushed to; the surviving shard absorbs the slice.
pushed = [i for i in inh if not i.get('error')]
skipped = [i for i in inh if i.get('error')]
assert len(pushed) == 1, f'want exactly one warm inheritor, got {inh}'
assert pushed[0].get('eval_entries', 0) > 0, pushed
assert all(i['error'].startswith('skipped') for i in skipped), skipped
print('drained', rep['addr'], '->', pushed[0]['addr'],
      f\"({rep['snapshot_bytes']} snapshot bytes, {pushed[0]['eval_entries']} eval entries)\")
"

# The drained daemon is alive but refusing work: health must answer 503.
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$DRAIN_PORT/v1/healthz")
if [ "$CODE" != "503" ]; then
  echo "drained daemon health = HTTP $CODE, want 503" >&2
  exit 1
fi

"$BIN/watos" -model Llama2-30B -seq 2048 \
  -remote "127.0.0.1:$PORT_R" -canon > "$WORK/post-drain-sweep.txt"
cmp "$WORK/post-drain-sweep.txt" "$WORK/local-sweep.txt"
AFTER=$(curl -s "http://127.0.0.1:$KEEP_PORT/v1/stats")
python3 - "$BEFORE" "$AFTER" <<'EOF'
import json, sys
before, after = json.loads(sys.argv[1]), json.loads(sys.argv[2])
# Zero cold misses is the whole point; hits need not grow because repeat
# legs can also be answered from the daemon's terminal job history.
for key in ('candidate_cache', 'eval_cache'):
    delta = after[key]['misses'] - before[key]['misses']
    assert delta == 0, f'{key} took {delta} cold misses serving the drained slice'
print('inheritor served the drained slice warm (zero cold misses)')
EOF

echo "chaos-smoke: all assertions passed"
