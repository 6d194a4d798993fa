#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root; every argument is passed to the benchmark:
#
#   bash e2ebench/run.sh --workload recurring-lowshare --seed 1 --seconds 10 --trace 0
#
# Build cache, Go's config and telemetry directory, the binary and span
# files all go under .bench_build/e2ebench.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out" "$@"
