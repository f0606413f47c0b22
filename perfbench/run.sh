#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it with the
# given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload heartbeat --seed 1 --seconds 10 --trace 0
#
# The build cache and the binary live under .bench_build/ in the
# checkout, so nothing is read from or written to the rest of the host.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
