#!/usr/bin/env bash
# Builds watosbench from source inside the checkout and runs it with the
# given arguments, e.g. from the repository root:
#
#   bash watosbench/run.sh --workload search-cold --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under the checkout: the Go
# build cache, the binary and the toolchain's own state go to .bench_build/,
# traced runs' spans to .bench_out/. No network is used (GOPROXY=off).
set -euo pipefail
dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$dir/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$dir" && go build -o "$build/watosbench" .)
exec "$build/watosbench" --out "$root/.bench_out" "$@"
