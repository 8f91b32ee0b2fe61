#!/bin/sh
# run.sh — build the benchmark from source and run it. Run it from the
# repository root, e.g.
#
#   sh perfbench/run.sh --workload serve-read --seed 1 --seconds 30 --trace 0
#
# The benchmark is its own Go module (perfbench/go.mod) that builds
# against the repository's module through a replace directive. The
# binary, the Go build cache and the traced run's span dumps all stay
# under .bench_build in the checkout.
set -eu

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
