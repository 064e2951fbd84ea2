#!/usr/bin/env bash
# Builds the benchmark and the sailfish-gw daemon from the checkout, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload tenant-mix --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run artifacts stay under
# .bench_build (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/sailfish-gw" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/sailfish-gw and perfbench/ must exist)" >&2
	exit 1
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
out="$build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOENV=off \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/sailfish-gw" ./cmd/sailfish-gw
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -gw "$out/sailfish-gw" -out "$out" "$@"
