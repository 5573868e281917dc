#!/usr/bin/env bash
# Builds the crawl-and-serve benchmark and the daemons it starts from
# this checkout, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload crawl-local --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/shardd" ]]; then
	echo "perfbench: run from the root of a webevolve checkout" >&2
	exit 1
fi
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR" "$out/bin"
go build -o "$out/bin/" ./cmd/shardd ./cmd/storerd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
