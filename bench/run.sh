#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash bench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the checkout root: the binary, the Go build cache and configuration,
# temporary files, span files and the served workloads' data. The Go
# toolchain must be installed; no module is downloaded.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
go build -C bench -buildvcs=false -o "$out/voltbench" .
exec "$out/voltbench" "$@"
