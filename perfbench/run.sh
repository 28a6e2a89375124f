#!/usr/bin/env bash
# Builds staub-serve and the benchmark driver from this checkout, then
# runs the driver with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-cache --seed 1 --seconds 18 --trace 0
#
# Build outputs, the Go build cache, the toolchain's config and temporary
# files all stay under .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
# With telemetry on (the default "local" mode) the go command starts a
# detached child that outlives this script; switch it off for this config.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/staub-serve" ./cmd/staub-serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -serve "$out/staub-serve" "$@"
