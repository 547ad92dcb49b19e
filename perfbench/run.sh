#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace; see README.md).
# Everything the build and the run write goes under the build directory
# inside the checkout ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gomod" "$build/tmp" "$build/home" "$build/work"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C perfbench build -o "$build/perfbench" .

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unavailable)"
exec "$build/perfbench" --workdir "$build/work" --commit "$commit" "$@"
