#!/usr/bin/env bash
# Builds the mcdbench harness from the checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash mcdbench/run.sh --workload cold-matrix --seed 0 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind stays inside the
# checkout: the Go build cache and the binary under .bench_build/, run
# outputs (result log, span files, scratch cache dirs) under .bench_out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's config and telemetry in the checkout too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/mcdbench" && go build -buildvcs=false -o "$build/mcdbench" .)
# The commit goes into each result's context; a checkout without .git
# records "unknown" (no search above the checkout).
MCDBENCH_COMMIT=unknown
if [ -e "$root/.git" ]; then
  MCDBENCH_COMMIT="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi
export MCDBENCH_COMMIT
cd "$root"
exec "$build/mcdbench" "$@"
