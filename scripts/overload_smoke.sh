#!/usr/bin/env bash
# Overload smoke: real watosd / watos-router processes under deliberate
# overload and brownout —
#   1. a single-worker daemon under a background burst sheds over-budget
#      submissions with HTTP 429 + Retry-After, an interactive job submitted
#      behind the burst overtakes it and finishes inside its deadline, and a
#      queued background job whose deadline lapses is cancelled without
#      executing (state deadline_exceeded, never failed),
#   2. a slow-but-alive shard (fault-injected request stalls; healthz stays
#      green) trips the router's latency breaker and leaves routing while
#      still probe-healthy, routed work keeps completing byte-identically on
#      the fast shard, and once the stall clears a half-open trial readmits
#      the shard (breaker closed again).
set -euo pipefail
. "$(dirname "$0")/lib.sh"
build watosd watos-router watos

PORT_D=${PORT_D:-8805}
PORT_A=${PORT_A:-8806}
PORT_B=${PORT_B:-8807}
PORT_R=${PORT_R:-8808}

submit() { # submit <port> <json-body> -> "HTTPCODE RETRY_AFTER BODY"
  curl -s -o "$WORK/submit-body.json" -w '%{http_code} %header{retry-after}' \
    -H 'Content-Type: application/json' -d "$2" "http://127.0.0.1:$1/v1/jobs"
  printf ' '
  cat "$WORK/submit-body.json"
}

echo "== 1. admission control on one overloaded daemon =="
"$BIN/watosd" -addr "127.0.0.1:$PORT_D" -workers 1 -jobs 1 \
  -backlog 16 -class-budget background=3 & PID_D=$!
wait_healthy "$PORT_D"

# Background burst: full Table II GA sweeps on distinct workloads (batch
# varies), so the eval cache cannot shortcut them — each holds the single
# job worker for hundreds of milliseconds. The first runs; the next three
# fill the background budget; the rest must shed with 429 + Retry-After.
SHED=0
EXPIRE_ID=
for i in $(seq 0 7); do
  BODY="{\"ga\":true,\"batch\":$((96 + i)),\"seed\":$i,\"priority\":\"background\""
  if [ "$i" = 1 ]; then
    # This one sits queued behind the running GA job and must expire there.
    BODY="$BODY,\"deadline_ms\":250}"
  else
    BODY="$BODY}"
  fi
  OUT=$(submit "$PORT_D" "$BODY")
  CODE=${OUT%% *}
  case "$CODE" in
    202|200)
      if [ "$i" = 1 ]; then
        EXPIRE_ID=$(python3 -c "import json,sys; print(json.load(open('$WORK/submit-body.json'))['id'])")
      fi
      ;;
    429)
      RA=$(echo "$OUT" | awk '{print $2}')
      if [ -z "$RA" ] || [ "$RA" -lt 1 ]; then
        echo "429 without a usable Retry-After: $OUT" >&2
        exit 1
      fi
      SHED=$((SHED + 1))
      ;;
    *)
      echo "unexpected submit answer: $OUT" >&2
      exit 1
      ;;
  esac
done
if [ "$SHED" -lt 1 ]; then
  echo "background burst of 8 over budget 3 shed nothing" >&2
  exit 1
fi
if [ -z "$EXPIRE_ID" ]; then
  echo "the deadline-carrying background job was not admitted" >&2
  exit 1
fi
echo "background burst: $SHED submissions shed with 429 + Retry-After"

# Interactive overtake: submitted behind the background backlog with a
# deadline, it must finish while background legs are still pending.
START_MS=$(python3 -c 'import time; print(int(time.time() * 1000))')
"$BIN/watos" -model Llama2-30B -config config3 -remote "127.0.0.1:$PORT_D" \
  -deadline 10s -canon > "$WORK/interactive.txt"
ELAPSED_MS=$(python3 -c "import time; print(int(time.time() * 1000) - $START_MS)")
curl -s "http://127.0.0.1:$PORT_D/v1/jobs" | python3 -c "
import sys, json
jobs = json.load(sys.stdin)
pending = [j['id'] for j in jobs if j.get('state') in ('queued', 'running')]
assert pending, 'interactive finished only after the backlog fully drained — overtake unproven'
print('interactive done in ${ELAPSED_MS}ms with', len(pending), 'background jobs still pending')
"

# The expired job: cancelled while queued, reported distinctly from failure.
for _ in $(seq 1 100); do
  STATE=$(curl -s "http://127.0.0.1:$PORT_D/v1/jobs/$EXPIRE_ID" | python3 -c "
import sys, json
print(json.load(sys.stdin).get('state', ''))")
  case "$STATE" in queued|running) sleep 0.1 ;; *) break ;; esac
done
if [ "$STATE" != "deadline_exceeded" ]; then
  echo "stale-deadline job ended as '$STATE', want deadline_exceeded" >&2
  exit 1
fi
echo "queued background job expired as deadline_exceeded (not failed)"

curl -s "http://127.0.0.1:$PORT_D/v1/stats" | python3 -c "
import sys, json
st = json.load(sys.stdin)
assert st['jobs_shed'] >= 1, st
assert st['jobs_expired'] >= 1, st
print('daemon gauges: jobs_shed =', st['jobs_shed'], ' jobs_expired =', st['jobs_expired'])
"
kill "$PID_D" 2>/dev/null || true

echo "== 2. latency breaker on a slow-but-alive shard =="
# Shard B answers healthz instantly but stalls its first 2 data-path
# requests for 1s — the brownout the health probe cannot see.
"$BIN/watosd" -addr "127.0.0.1:$PORT_A" -workers 2 &
"$BIN/watosd" -addr "127.0.0.1:$PORT_B" -workers 2 \
  -test-inject-delay 1s -test-inject-first 2 &
wait_healthy "$PORT_A"
wait_healthy "$PORT_B"

"$BIN/watos-router" -addr "127.0.0.1:$PORT_R" \
  -shards "127.0.0.1:$PORT_A,127.0.0.1:$PORT_B" -replicas 2 \
  -breaker-window 4 -breaker-min-samples 2 -breaker-p95 300ms \
  -breaker-cooldown 500ms &
wait_healthy "$PORT_R"

# Each router stats aggregation round-trips every shard, so two calls feed
# shard B's breaker two ~1s samples — past min-samples, p95 over 300ms, and
# the breaker opens while the health probe stays green. The two calls also
# exhaust the injected stall, so the shard is genuinely fast again after.
curl -s "http://127.0.0.1:$PORT_R/v1/stats" >/dev/null
curl -s "http://127.0.0.1:$PORT_R/v1/stats" >/dev/null
curl -s "http://127.0.0.1:$PORT_R/v1/stats" | python3 -c "
import sys, json
st = json.load(sys.stdin)
by_addr = {s['addr']: s for s in st['shards']}
slow, fast = by_addr['127.0.0.1:$PORT_B'], by_addr['127.0.0.1:$PORT_A']
assert slow['healthy'], 'slow shard lost probe health; the breaker was not the excluder'
assert slow['breaker']['state'] == 'open', slow['breaker']
assert slow['breaker']['times_opened'] >= 1, slow['breaker']
assert fast['breaker']['state'] == 'closed', fast['breaker']
p95 = slow['breaker'].get('window_p95_ms', 0)
print(f'slow shard: probe-healthy, breaker open (window p95 {p95:.0f}ms)')
"

# Routed work keeps completing — and byte-identically — while the breaker
# holds the slow shard out of the replica chains.
"$BIN/watos" -model Llama2-30B -config config3 -canon > "$WORK/local.txt"
"$BIN/watos" -model Llama2-30B -config config3 -remote "127.0.0.1:$PORT_R" \
  -deadline 10s -retry-budget 2 -canon > "$WORK/routed.txt"
cmp "$WORK/routed.txt" "$WORK/local.txt"
echo "routed job byte-identical with the slow shard's breaker open"

# Readmission: after the cooldown a submission whose replica chain leads
# with the slow shard claims the half-open trial; the stall is exhausted, the
# trial succeeds fast, and the breaker closes.
sleep 0.6
CLOSED=
for i in $(seq 1 30); do
  curl -s -o /dev/null -H 'Content-Type: application/json' \
    -d "{\"config\":\"config3\",\"seed\":$((100 + i))}" \
    "http://127.0.0.1:$PORT_R/v1/jobs"
  STATE=$(curl -s "http://127.0.0.1:$PORT_R/v1/stats" | python3 -c "
import sys, json
st = json.load(sys.stdin)
print({s['addr']: s for s in st['shards']}['127.0.0.1:$PORT_B']['breaker']['state'])")
  if [ "$STATE" = "closed" ]; then CLOSED=1; break; fi
  sleep 0.1
done
if [ -z "$CLOSED" ]; then
  echo "slow shard's breaker never closed after the stall cleared" >&2
  exit 1
fi
echo "half-open trial readmitted the recovered shard (breaker closed)"

echo "overload-smoke: all assertions passed"
