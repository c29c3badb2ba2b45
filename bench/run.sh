#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the Go toolchain writes (build cache, temporaries, the binary) goes
# under .bench_build in the checkout, never under $HOME or /tmp.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOENV=off
export XDG_CONFIG_HOME="$build/config"

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
