#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload specmix-sim --seed 1 --seconds 30 --trace 0
# Everything the build writes (binary, Go build cache) stays under the build
# directory, $CARGO_TARGET_DIR if set, else .bench_build.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The serve-fleet rigs keep their stores under the build directory too.
export PERFBENCH_DIR=$out
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
