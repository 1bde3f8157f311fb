#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache live under $CARGO_TARGET_DIR (default
# .bench_build), inside the checkout; nothing is fetched.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# A traced run writes its spans beside the binary.
exec "$out/perfbench" --spans "$out/spans.tsv" "$@"
