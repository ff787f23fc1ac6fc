#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash recmechbench/run.sh --workload sql-joins --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary, the runs' data dirs and the traced run's
# spans all stay under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/recmechbench" && go build -o "$out/recmechbench" .)
exec "$out/recmechbench" "$@"
