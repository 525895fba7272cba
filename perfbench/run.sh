#!/usr/bin/env bash
# Builds the archive-service benchmark from this checkout's sources and
# runs it from the checkout root. Every build, cache and scratch file
# stays under .bench_build/ in the checkout. Usage:
#
#	bash perfbench/run.sh --workload ingest|read|service --seed N --seconds S --trace 0|1
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
