#!/usr/bin/env bash
# Entry point of the benchmark driver (the "command" of BENCHMARK.json):
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# run from the root of a checkout. Builds the benchmark and the beholderd
# daemon it drives from the checkout's source into .bench_build/ (the
# first run pays the compile; later runs find the Go build cache warm),
# then runs the benchmark. Everything it writes — build cache, binaries,
# daemon state directories — stays under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

# Keep the Go toolchain's own writes (build cache, work directories,
# module cache, telemetry counters) inside the checkout, and off the
# network: the module needs nothing but the standard library.
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

# The module in bench/ replaces `beholder` with the checkout around it,
# so a directory holding only the benchmark fails here, before any run.
(cd "$here" && go build -o "$build/bin/bench" . && go build -o "$build/bin/beholderd" beholder/cmd/beholderd)

cd "$root"
exec "$build/bin/bench" -daemon-bin "$build/bin/beholderd" -tmp "$build/tmp" "$@"
