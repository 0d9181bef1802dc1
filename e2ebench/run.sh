#!/usr/bin/env bash
# Builds collabd and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload kaggle-seq --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and every file a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
if [ ! -f go.mod ] || [ ! -d cmd/collabd ]; then
  echo "e2ebench: run from the repository root; go.mod or cmd/collabd is missing" >&2
  exit 1
fi
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
# With telemetry on (the default for a fresh config directory) the go
# command forks a detached sidecar that can outlive the build; turn it off
# so no process survives the benchmark.
echo off > "$out/config/go/telemetry/mode"
go build -o "$out/collabd" ./cmd/collabd
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --collabd "$out/collabd" --workdir "$out/work" "$@"
