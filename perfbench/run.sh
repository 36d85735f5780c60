#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's source and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload random_read --seed 1 --seconds 10 --trace 0
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
