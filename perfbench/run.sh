#!/usr/bin/env bash
# Builds the benchmark and dewrite-serve from the checkout it is run in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload sim-dup --seed 42 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache go
# to .bench_build/ under that root, so a run reads and writes nothing outside
# the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench-bin"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomodcache"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/dewrite-serve" dewrite/cmd/dewrite-serve)

# The ceiling keeps git from searching above the checkout.
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" -serve-bin "$out/dewrite-serve" -commit "$commit" "$@"
