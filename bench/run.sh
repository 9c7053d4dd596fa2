#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in, then runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload clos1k_lu --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, the go command's own state and the
# benchmark's temporary files stay in .bench_build/ inside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C bench build -o "$out/mpinet-bench" .
exec "$out/mpinet-bench" "$@"
