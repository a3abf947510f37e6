#!/usr/bin/env bash
# Builds the misperf benchmark from the sources in this checkout and runs it
# with the given arguments. Run it from the repository root:
#
#   bash misperf/run.sh --workload swap-dense --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/misperf"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$src" && go build -o "$out/misperf" .)
exec "$out/misperf" "$@"
