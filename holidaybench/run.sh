#!/usr/bin/env bash
# Builds the holidaybench command from this checkout and runs it with the
# given arguments, e.g.
#
#   bash holidaybench/run.sh --workload read-inproc --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write — the binary, the Go build cache, temporary WAL directories and
# trace spans — goes under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export TMPDIR="$out/tmp"

(cd "$here" && go build -o "$out/holidaybench" .)
exec "$out/holidaybench" "$@"
