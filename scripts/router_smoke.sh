#!/usr/bin/env bash
# Router smoke: start 2 watosd shards + watos-router, prove the sharded tier
# is invisible to results —
#   1. a routed single-architecture job is byte-identical to the in-process
#      search (`watos -canon` diff),
#   2. a scatter-gathered Table II sweep merges into the same record set as
#      an in-process sweep (`watos -canon` diff, no -config),
#   3. a third shard joining with -seed-from answers a previously-routed job
#      entirely from the seeded caches (stats assertion, cross-process).
set -euo pipefail
. "$(dirname "$0")/lib.sh"
build watosd watos-router watos

PORT_A=${PORT_A:-8791}
PORT_B=${PORT_B:-8792}
PORT_C=${PORT_C:-8793}
PORT_R=${PORT_R:-8790}

"$BIN/watosd" -addr "127.0.0.1:$PORT_A" -workers 2 &
"$BIN/watosd" -addr "127.0.0.1:$PORT_B" -workers 2 &
wait_healthy "$PORT_A"
wait_healthy "$PORT_B"

"$BIN/watos-router" -addr "127.0.0.1:$PORT_R" \
  -shards "127.0.0.1:$PORT_A,127.0.0.1:$PORT_B" &
wait_healthy "$PORT_R"

echo "== routed job vs in-process search =="
"$BIN/watos" -model Llama2-30B -config config3 -seq 2048 \
  -remote "127.0.0.1:$PORT_R" -canon > "$WORK/routed.txt"
"$BIN/watos" -model Llama2-30B -config config3 -seq 2048 -canon > "$WORK/local.txt"
cmp "$WORK/routed.txt" "$WORK/local.txt"
echo "byte-identical ($(wc -c < "$WORK/local.txt") bytes)"

echo "== scatter-gathered sweep vs in-process sweep =="
"$BIN/watos" -model Llama2-30B -seq 2048 \
  -remote "127.0.0.1:$PORT_R" -canon > "$WORK/routed-sweep.txt"
"$BIN/watos" -model Llama2-30B -seq 2048 -canon > "$WORK/local-sweep.txt"
cmp "$WORK/routed-sweep.txt" "$WORK/local-sweep.txt"
echo "byte-identical ($(wc -c < "$WORK/local-sweep.txt") bytes)"

echo "== cold shard joins with -seed-from and serves warm =="
# Find which shard owns the config3 fingerprint (the routed job and the
# sweep's config3 part both ran there) so the joiner seeds from the peer
# that actually holds those warm entries.
OWNER_PORT=$PORT_A
if curl -s "http://127.0.0.1:$PORT_B/v1/jobs" | python3 -c "
import json, sys
jobs = json.load(sys.stdin)
sys.exit(0 if any(j.get('config') == 'config3' for j in jobs) else 1)
"; then
  OWNER_PORT=$PORT_B
fi
"$BIN/watosd" -addr "127.0.0.1:$PORT_C" -workers 2 -seed-from "127.0.0.1:$OWNER_PORT" &
wait_healthy "$PORT_C"

# Ask the seeded shard directly for the already-routed job: it must answer
# without a single candidate-cache miss or re-simulation.
"$BIN/watos" -model Llama2-30B -config config3 -seq 2048 \
  -remote "127.0.0.1:$PORT_C" -canon > "$WORK/seeded.txt"
cmp "$WORK/seeded.txt" "$WORK/local.txt"
curl -s "http://127.0.0.1:$PORT_C/v1/stats" | python3 -c "
import json, sys
s = json.load(sys.stdin)
cc = s['candidate_cache']
assert cc['size'] > 0, f'joined shard has empty caches (seed failed): {cc}'
assert cc['misses'] == 0, f'joined shard re-explored candidates: {cc}'
assert cc['hits'] > 0, f'joined shard served nothing from the seed: {cc}'
assert s['eval_cache']['misses'] == 0, f'joined shard re-simulated: {s[\"eval_cache\"]}'
print('joined shard served entirely from the peer seed:', cc)
"

echo "router-smoke: all assertions passed"
