#!/usr/bin/env bash
# Async-jobs smoke: start 1 single-job-worker watosd shard + watos-router as
# real processes, prove the async sweep subsystem end to end —
#   1. POST /v1/sweeps answers 202 with durable handles while the legs run,
#   2. an interactive job submitted behind a deep queued bulk-sweep backlog
#      overtakes it (priority dispatch): it finishes while the last sweep is
#      still running,
#   3. a sweep handle's final merged record diffs clean against the
#      in-process sweep (`watos -canon`),
#   4. a repeat of the finished interactive job is served from the router's
#      completed-result cache without crossing the fleet.
set -euo pipefail
. "$(dirname "$0")/lib.sh"
build watosd watos-router watos

PORT_A=${PORT_A:-8795}
PORT_R=${PORT_R:-8794}

# One shard, ONE job worker: every sweep leg queues behind its predecessor,
# giving the interactive job a backlog to overtake.
"$BIN/watosd" -addr "127.0.0.1:$PORT_A" -workers 2 -jobs 1 &
wait_healthy "$PORT_A"
"$BIN/watos-router" -addr "127.0.0.1:$PORT_R" -shards "127.0.0.1:$PORT_A" &
wait_healthy "$PORT_R"

echo "== async sweep handles + interactive job races past the bulk legs =="
# Six bulk sweeps (the GA workload is the heaviest leg this CLI reaches;
# distinct seeds keep the 24 legs from coalescing) stack several seconds of
# sweep-leg work on the single job worker.
SWEEP_JSON='{"model":"Llama2-30B","seq":4096,"batch":1024,"ga":true}'
LAST_ID=""
for seed in 0 1 2 3 4 5; do
  body=$SWEEP_JSON
  [ "$seed" != 0 ] && body=${SWEEP_JSON%\}}",\"seed\":$seed}"
  LAST_ID=$(curl -s -X POST "http://127.0.0.1:$PORT_R/v1/sweeps" -d "$body" \
    | python3 -c "
import json, sys
st = json.load(sys.stdin)
assert st['state'] == 'running', f'sweep handle not running at submit: {st}'
assert st['total_legs'] == 4, f'expected 4 legs: {st}'
print(st['id'])
")
done
echo "queued 6 async sweeps (24 legs); last handle: $LAST_ID"

JOB_ID=$(curl -s -X POST "http://127.0.0.1:$PORT_R/v1/jobs" \
  -d '{"model":"Llama2-30B","config":"config3","seq":2048,"seed":42}' \
  | python3 -c "import json,sys; print(json.load(sys.stdin)['id'])")

# Poll the interactive job to done (the poll also lands its result in the
# router's completed-result cache).
for _ in $(seq 1 300); do
  STATE=$(curl -s "http://127.0.0.1:$PORT_R/v1/jobs/$JOB_ID" \
    | python3 -c "import json,sys; print(json.load(sys.stdin)['state'])")
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { echo "interactive job failed" >&2; exit 1; }
  sleep 0.1
done
[ "$STATE" = done ] || { echo "interactive job never finished" >&2; exit 1; }

# The single job worker still owes seconds of queued sweep legs: the
# interactive job overtook them or it could not have finished already.
curl -s "http://127.0.0.1:$PORT_R/v1/sweeps/$LAST_ID" | python3 -c "
import json, sys
st = json.load(sys.stdin)
assert st['state'] == 'running', \
    f'sweep already {st[\"state\"]} when the interactive job finished — priority dispatch broken'
print(f'interactive job done; last sweep at {st[\"completed_legs\"]}/{st[\"total_legs\"]} legs — interactive overtook the bulk backlog')
"

echo "== async merged record vs in-process sweep =="
for _ in $(seq 1 600); do
  STATE=$(curl -s "http://127.0.0.1:$PORT_R/v1/sweeps/$LAST_ID" \
    | python3 -c "import json,sys; print(json.load(sys.stdin)['state'])")
  { [ "$STATE" = done ] || [ "$STATE" = failed ]; } && break
  sleep 0.1
done
# swp-1 is the seed-0 sweep — the request `watos` runs in-process below.
curl -s "http://127.0.0.1:$PORT_R/v1/sweeps/swp-1" | python3 -c "
import json, sys
st = json.load(sys.stdin)
assert st['state'] == 'done', f'sweep ended {st[\"state\"]}: {st.get(\"error\")}'
assert st['completed_legs'] == st['total_legs'] == 4
for leg in st['legs']:
    assert leg['state'] == 'done' and leg.get('result'), f'leg without a partial row: {leg}'
sys.stdout.write(st['result']['canonical'])
" > "$WORK/async-sweep.txt"
"$BIN/watos" -model Llama2-30B -seq 4096 -batch 1024 -ga -canon > "$WORK/local-sweep.txt"
cmp "$WORK/async-sweep.txt" "$WORK/local-sweep.txt"
echo "byte-identical ($(wc -c < "$WORK/local-sweep.txt") bytes)"

echo "== repeat job served from the completed-result cache =="
ROUTED_BEFORE=$(curl -s "http://127.0.0.1:$PORT_R/v1/stats" \
  | python3 -c "import json,sys; print(json.load(sys.stdin)['router']['jobs_routed'])")
curl -s -X POST "http://127.0.0.1:$PORT_R/v1/jobs" \
  -d '{"model":"Llama2-30B","config":"config3","seq":2048,"seed":42}' | python3 -c "
import json, sys
j = json.load(sys.stdin)
assert j['id'].startswith('cache/'), f'repeat not served from cache: {j[\"id\"]}'
assert j['state'] == 'done' and j.get('result'), f'cache job not terminal: {j}'
print('repeat answered at the router as', j['id'])
"
curl -s "http://127.0.0.1:$PORT_R/v1/stats" | python3 -c "
import json, sys
before = int('$ROUTED_BEFORE')
s = json.load(sys.stdin)
rc = s['result_cache']
assert rc['hits'] >= 1, f'no result-cache hit recorded: {rc}'
assert s['router']['jobs_routed'] == before, \
    f'repeat crossed the fleet: jobs_routed {before} -> {s[\"router\"][\"jobs_routed\"]}'
print('result cache:', rc)
"

echo "async-smoke: all assertions passed"
