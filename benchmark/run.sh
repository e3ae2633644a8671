#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of
# the repository:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The Go build cache, temporary files and the binary stay in .bench_build
# under the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd benchmark && go build -o "$out/flexmap-benchmark" .)
exec "$out/flexmap-benchmark" "$@"
