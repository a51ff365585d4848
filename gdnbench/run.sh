#!/usr/bin/env bash
# Builds the GDN load generator from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash gdnbench/run.sh --workload bulk-download --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go -C "$root/gdnbench" build -trimpath -buildvcs=false -o "$out/gdnbench" .
exec "$out/gdnbench" "$@"
