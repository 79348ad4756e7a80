#!/usr/bin/env bash
# Builds pipeschedd and the loopbench command from this checkout, then
# runs one benchmark workload. Run from the repository root:
#
#   bash loopbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
#
# Every build product and cache stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home"
export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod

go build -o "$out/pipeschedd" ./cmd/pipeschedd
(cd loopbench && go build -o "$out/loopbench" .)
exec "$out/loopbench" --daemon "$out/pipeschedd" --spans "$out/spans" "$@"
