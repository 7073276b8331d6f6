#!/usr/bin/env bash
# Builds kronbip and the benchmark from this checkout into .bench_build/,
# then runs one workload:
#
#   bash kbench/run.sh --workload chain-bin --seed 1 --seconds 20 --trace 0
#
# Run from the root of a kronbip checkout.  Every build output, the Go
# build cache and the span dumps stay under .bench_build/.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/kronbip ] || [ ! -f kbench/go.mod ]; then
	echo "kbench: run from the root of a kronbip checkout (cmd/kronbip not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
go build -o "$out/kronbip" ./cmd/kronbip
go build -C kbench -o "$out/kbench" .
exec "$out/kbench" -bin "$out/kronbip" "$@"
