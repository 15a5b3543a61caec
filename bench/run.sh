#!/usr/bin/env bash
# Build the benchmark and run it from the repository root.
#
#   bash bench/run.sh [flags]              one run; BENCHMARK.json's command plus
#                                          --workload W --seed N --seconds S --trace 0|1
#   bash bench/run.sh sets N [flags]       N untraced sets of all four workloads into
#                                          bench/out/sets.json, one traced set into
#                                          bench/out/traced.json
#   bash bench/run.sh compare A.json B.json
#                                          one row per workload × end-to-end metric:
#                                          ok / worse / unresolved against the bounds
#
# Everything the build writes stays inside the checkout (.bench_build/), and
# nothing is fetched: the module has no dependencies outside this repository.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/coalloc-bench" .)
cd "$root"

case "${1:-}" in
sets)
	n="${2:?usage: run.sh sets N [flags]}"
	shift 2
	"$build/coalloc-bench" "$@" --workload all --sets "$n" --trace 0 --out bench/out/sets.json
	"$build/coalloc-bench" "$@" --workload all --trace 1 --out bench/out/traced.json
	;;
compare)
	shift
	"$build/coalloc-bench" compare "$@"
	;;
*)
	exec "$build/coalloc-bench" "$@"
	;;
esac
