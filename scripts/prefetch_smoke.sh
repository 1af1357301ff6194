#!/usr/bin/env bash
# Prefetch smoke: a real watosd process with the speculative cache-warming
# lane on —
#   1. demand submissions are recorded in the request trace (GET /v1/trace)
#      with their decoded sweep coordinates,
#   2. an idle daemon pre-evaluates the predicted sweep neighbor of a
#      completed demand job, so the neighbor's later demand submission is a
#      warm hit attributed to prefetch — and byte-identical to the same
#      request demand-evaluated on a daemon with the lane off,
#   3. a demand burst arriving while speculations sit queued preempts them:
#      the queued prefetch jobs are cancelled (state cancelled, counted in
#      prefetch_cancelled), never letting speculation delay demand.
set -euo pipefail
. "$(dirname "$0")/lib.sh"
build watosd

PORT_A=${PORT_A:-8815}
PORT_B=${PORT_B:-8816}

submit() { # submit <port> <json-body> -> job id
  curl -s -H 'Content-Type: application/json' -d "$2" \
    "http://127.0.0.1:$1/v1/jobs" | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])'
}

post() { # post <port> <json-body> <reply-file>
  curl -s -H 'Content-Type: application/json' -d "$2" "http://127.0.0.1:$1/v1/jobs" > "$3"
}
id_of() { # id_of <reply-file> -> job id
  python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$1"
}

wait_done() { # wait_done <port> <job-id> -> writes job json to $WORK/job.json
  for _ in $(seq 1 300); do
    curl -s "http://127.0.0.1:$1/v1/jobs/$2" > "$WORK/job.json"
    STATE=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1])).get("state",""))' "$WORK/job.json")
    case "$STATE" in queued|running) sleep 0.1 ;; *) break ;; esac
  done
  if [ "$STATE" != "done" ]; then
    echo "job $2 on port $1 ended as '$STATE', want done" >&2
    exit 1
  fi
}

stat_of() { # stat_of <port> <json-field>
  curl -s "http://127.0.0.1:$1/v1/stats" | \
    python3 -c 'import json,sys; print(json.load(sys.stdin)[sys.argv[1]])' "$2"
}

echo "== 1. demand submissions land in the request trace =="
"$BIN/watosd" -addr "127.0.0.1:$PORT_A" -workers 2 -jobs 1 \
  -prefetch -prefetch-fanout 3 & PID_A=$!
wait_healthy "$PORT_A"

ID1=$(submit "$PORT_A" '{"config":"config3","fixed_tp":1}')
wait_done "$PORT_A" "$ID1"
curl -s "http://127.0.0.1:$PORT_A/v1/trace" | python3 -c "
import sys, json
tr = json.load(sys.stdin)
assert tr['len'] >= 1, tr
e = tr['entries'][0]
assert e['req']['tp'] == 1 and e['req']['config'] == 'config3', e
print('trace holds', tr['len'], 'entry with decoded coords tp=1 config=config3')
"

echo "== 2. the idle daemon pre-evaluates the predicted neighbor =="
# The completed tp=1 job predicts its sweep neighbors (nearest: tp=2) and
# evaluates them through idle capacity. Wait for the speculation to finish.
WARM=
for _ in $(seq 1 300); do
  ISSUED=$(stat_of "$PORT_A" prefetch_issued)
  DEPTH=$(stat_of "$PORT_A" queue_depth)
  INFLIGHT=$(stat_of "$PORT_A" jobs_in_flight)
  if [ "$ISSUED" -ge 1 ] && [ "$DEPTH" = 0 ] && [ "$INFLIGHT" = 0 ]; then WARM=1; break; fi
  sleep 0.1
done
if [ -z "$WARM" ]; then
  echo "speculation never issued/completed on the idle daemon" >&2
  exit 1
fi

ID2=$(submit "$PORT_A" '{"config":"config3","fixed_tp":2}')
wait_done "$PORT_A" "$ID2"
python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["result"]["canonical"], end="")' \
  "$WORK/job.json" > "$WORK/warm.txt"
HITS=$(stat_of "$PORT_A" hits_prefetch)
USEFUL=$(stat_of "$PORT_A" prefetch_useful)
if [ "$HITS" -lt 1 ] || [ "$USEFUL" -lt 1 ]; then
  echo "neighbor demand was not a prefetch-attributed warm hit (hits_prefetch=$HITS useful=$USEFUL)" >&2
  exit 1
fi
echo "predicted neighbor served warm: hits_prefetch=$HITS prefetch_useful=$USEFUL"

# Byte identity: the same request demand-evaluated on a daemon without the
# speculative lane must produce the identical canonical record.
"$BIN/watosd" -addr "127.0.0.1:$PORT_B" -workers 2 -jobs 1 &
wait_healthy "$PORT_B"
IDB=$(submit "$PORT_B" '{"config":"config3","fixed_tp":2}')
wait_done "$PORT_B" "$IDB"
python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["result"]["canonical"], end="")' \
  "$WORK/job.json" > "$WORK/cold.txt"
cmp "$WORK/warm.txt" "$WORK/cold.txt"
echo "prefetched record byte-identical to the lane-off demand evaluation"

echo "== 3. a demand burst preempts queued speculation =="
# The prefetch class is part of the wire API, so the preemption contract can
# be pinned deterministically on daemon B (no auto-speculation noise): a slow
# prefetch-class GA job holds the single worker, a second prefetch-class job
# sits queued behind it, and the demand burst must cancel the queued one
# instantly — state cancelled, counted, and the burst itself completes.
# Every request from the first speculation to the burst is a bare curl
# whose reply is parsed only after the burst is sent: a python3 start per
# request stretched that window to about the length of the GA job itself.
post "$PORT_B" '{"ga":true,"batch":96,"seed":1,"priority":"prefetch"}' "$WORK/p1.json"
post "$PORT_B" '{"ga":true,"batch":97,"seed":2,"priority":"prefetch"}' "$WORK/p2.json"
curl -s "http://127.0.0.1:$PORT_B/v1/stats" > "$WORK/stats.json"
for i in 1 2 3; do
  post "$PORT_B" "{\"config\":\"config3\",\"seed\":$((40 + i))}" "$WORK/burst$i.json"
done
IDP1=$(id_of "$WORK/p1.json")
IDP2=$(id_of "$WORK/p2.json")
QUEUED=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["queue_prefetch"])' "$WORK/stats.json")
if [ "$QUEUED" -lt 1 ]; then
  echo "second speculation did not queue behind the running one" >&2
  exit 1
fi

BURST_IDS=
for i in 1 2 3; do
  BURST_IDS="$BURST_IDS $(id_of "$WORK/burst$i.json")"
done
STATE2=$(curl -s "http://127.0.0.1:$PORT_B/v1/jobs/$IDP2" | \
  python3 -c 'import json,sys; print(json.load(sys.stdin).get("state",""))')
if [ "$STATE2" != "cancelled" ]; then
  echo "queued speculation $IDP2 is '$STATE2' after demand arrival, want cancelled" >&2
  exit 1
fi
if [ "$(stat_of "$PORT_B" prefetch_cancelled)" -lt 1 ]; then
  echo "prefetch_cancelled counter did not move" >&2
  exit 1
fi
for ID in $BURST_IDS; do
  wait_done "$PORT_B" "$ID"
done
echo "demand burst cancelled queued speculation $IDP2 instantly; burst completed (running speculation $IDP1 untouched)"

echo "prefetch-smoke: all assertions passed"
