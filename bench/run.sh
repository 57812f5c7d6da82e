#!/usr/bin/env bash
# Builds rootbench inside the checkout and runs it with the arguments
# given. BENCHMARK.json's command is this script: a plain `go run` would
# put its build cache under $HOME, outside the checkout.
set -euo pipefail
bench=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench")
build="$root/.bench_build"
mkdir -p "$build/home"
(
  cd "$bench"
  HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config" \
  GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off \
    go build -o "$build/rootbench" ./cmd/rootbench
)
cd "$root"
exec "$build/rootbench" "$@"
