# Shared prologue of the scripts/*_smoke.sh end-to-end smokes, sourced right
# after `set -euo pipefail`: $BIN holds the built binaries and $WORK the
# smoke's outputs; the EXIT trap stops every daemon the smoke started in
# the background, waits for it to exit and removes both directories.
BIN=$(mktemp -d)
WORK=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; wait; rm -rf "$BIN" "$WORK"' EXIT

# build <cmd>... builds each ./cmd/<cmd> into $BIN/<cmd>.
build() {
  for cmd in "$@"; do
    go build -o "$BIN/$cmd" "./cmd/$cmd"
  done
}

# wait_healthy <port> polls a daemon's /v1/healthz for up to 10 s.
wait_healthy() {
  for _ in $(seq 1 50); do
    curl -sf "http://127.0.0.1:$1/v1/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "endpoint on port $1 never became healthy" >&2
  return 1
}
