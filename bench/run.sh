#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload cold-sim --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# runs' scratch directories all live in .bench_build there. The build needs
# no network: the bench module's only dependency is the repository itself.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$out/dcgbench" .)
exec "$out/dcgbench" "$@"
