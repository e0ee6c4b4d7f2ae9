#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments (see README.md). Run from the root of the repository:
#
#   bash pacebench/run.sh --workload oneshot --seed 3 --seconds 30 --trace 0
#
# Every build product and cache stays under .bench_build in the current
# directory, so the run writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

go build -C "$here" -o "$build/pacebench" .
exec "$build/pacebench" "$@"
