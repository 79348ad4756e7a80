#!/usr/bin/env bash
# bench.sh — snapshot the exact-engine, heuristic, portfolio and serving
# benchmarks into a machine-readable JSON file.
#
# Usage:
#   scripts/bench.sh                 # writes a temporary file and prints its path
#   scripts/bench.sh out.json        # explicit output path (first arg)
#   scripts/bench.sh some/dir        # derived name inside an existing directory
#   BENCH_OUT=out.json scripts/bench.sh
#   BENCHTIME=0.5s scripts/bench.sh  # shorter runs (CI)
#
# The repository benchmark (loopbench, declared in BENCHMARK.json) is the
# performance gate; this is a local helper for the layer benchmarks, and
# it writes nothing into the repository unless asked to. A directory
# argument gets the name one generation past the highest committed
# BENCH_<n>.json, so CI never collides with a committed snapshot. The
# output records ns/op, B/op and allocs/op for every benchmark matched by
# BENCH_PATTERN across BENCH_PACKAGES (the root solvers plus the serving
# layer, its cache and the cluster fleet), under a header naming the Go
# version, the CPU model, the host's online core count (nproc) and the
# GOMAXPROCS the benchmarks ran with. CI uploads the file it writes as a
# build artifact on every run.
set -euo pipefail

# Resolve a caller-supplied output path against the caller's directory
# BEFORE changing into the repo root, so `scripts/bench.sh out.json`
# writes where the caller stands.
OUT="${BENCH_OUT:-${1:-}}"
case "$OUT" in
"" | /*) ;;
*) OUT="$PWD/$OUT" ;;
esac
cd "$(dirname "$0")/.."

if [ -z "$OUT" ]; then
    OUT="$(mktemp "${TMPDIR:-/tmp}/pipesched-bench.XXXXXX")"
elif [ -d "$OUT" ]; then
    # A directory argument gets the next generation's name inside it.
    latest=$(ls BENCH_*.json 2>/dev/null | sed -En 's/^BENCH_([0-9]+)\.json$/\1/p' | sort -n | tail -1)
    OUT="$OUT/BENCH_$((${latest:-0} + 1)).json"
fi
BENCHTIME="${BENCHTIME:-1s}"
PATTERN="${BENCH_PATTERN:-^(BenchmarkExactMinPeriod|BenchmarkExactParetoFront|BenchmarkExactLargeFewClass|BenchmarkExactMinPeriodUnderLatencyFewClass|BenchmarkExactMinPeriodUnderLatencyPaper|BenchmarkExactMinLatencyUnderPeriodRaced|BenchmarkBatchGrouped|BenchmarkPortfolioRace|BenchmarkFullHetPortfolioRace|BenchmarkSplitFullyHet|BenchmarkHeuristicSolve|BenchmarkPeriodLowerBound|BenchmarkParetoSweep|BenchmarkBulkMix|BenchmarkServeSolve|BenchmarkServeBatch|BenchmarkServeSweep|BenchmarkDecodeBody|BenchmarkCacheGetHitParallel|BenchmarkCacheDoHitParallel|BenchmarkCacheChurnParallel|BenchmarkFleetServe|BenchmarkFleetForward|BenchmarkFleetHedgedForward|BenchmarkFleetReplicatedMiss|BenchmarkFleetAntiEntropy|BenchmarkFleetJoinWarmup)$}"
PACKAGES="${BENCH_PACKAGES:-. ./internal/service ./internal/service/cache ./internal/cluster}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# shellcheck disable=SC2086 # PACKAGES is a deliberate word list
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" $PACKAGES | tee "$raw"

# Fields are located by their unit token, not position: benchmarks that
# b.ReportMetric extra columns (collapsed/op, miss/op) still parse.
NPROC="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
awk -v go_version="$(go version | awk '{print $3}')" -v nproc="$NPROC" -v gomaxprocs="${GOMAXPROCS:-$NPROC}" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ && /ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "B/op") bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "" || bytes == "" || allocs == "") next
    entry = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                    name, $2, ns, bytes, allocs)
    entries = entries (entries == "" ? "" : ",\n") entry
}
END {
    if (entries == "") {
        print "bench.sh: no benchmark lines parsed" > "/dev/stderr"
        exit 1
    }
    print "{"
    printf "  \"go\": \"%s\",\n", go_version
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"nproc\": %s,\n", nproc
    printf "  \"gomaxprocs\": %s,\n", gomaxprocs
    print  "  \"benchmarks\": ["
    print entries
    print "  ]"
    print "}"
}' "$raw" > "$OUT"

echo "wrote $OUT"
