#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it runs
# in, then runs it with the given arguments:
#
#   bash benchmark/run.sh --workload kv-pipeline --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build leaves behind
# (binary, Go build cache, temporary files) goes under .bench_build/ in
# that directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$here" -o "$out/stmladder" .
exec "$out/stmladder" "$@"
