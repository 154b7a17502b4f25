#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-floor --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every file the Go toolchain writes (build
# cache, module cache, telemetry, the binary) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
