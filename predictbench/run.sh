#!/usr/bin/env bash
# Builds predictd and the benchmark harness from this checkout's source, then
# runs one benchmark run. Run it from the repository root:
#
#   bash predictbench/run.sh --workload durable-ingest --seed 1 --seconds 25 --trace 0
#
# Everything it writes (Go build cache, binaries, daemon state, logs, spans)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/work"

export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp"

go -C "$root/predictbench" build -o "$out/predictbench" .
go -C "$root/predictbench" build -o "$out/predictd" github.com/acis-lab/larpredictor/cmd/predictd

exec "$out/predictbench" -predictd "$out/predictd" -work "$out/work" "$@"
