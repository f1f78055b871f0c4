#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# root of the repository:
#
#   bash perfbench/run.sh --workload safety-full --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) and the trace files go under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
  exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
