#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload walk-http --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact (the binary, the
# Go build cache, temporary files) stays under .bench_build/ in the
# checkout, or under $CARGO_TARGET_DIR when that is set. The benchmark is
# a module of its own (perfbench/go.mod) that builds the service from the
# checkout's source.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a full TafLoc checkout" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$root/$out"
# The go command's caches, temporary files and telemetry counters stay
# under $out too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
mkdir -p "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
