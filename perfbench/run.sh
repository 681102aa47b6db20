#!/usr/bin/env bash
# Builds the host-time benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 5 --trace 0
# The Go build cache, temporary files, the binary and the results all stay
# under .bench_build/ in the working directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-mod" "$build/config"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/go-tmp"
export GOMODCACHE="$build/go-mod"
# The go command keeps its env file and telemetry counters under the user
# config directory; keep them in the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" -root "$root" "$@"
