#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout.
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the checkout; span files and the durable workload's data
# go under benchmark/out/. Both are in .gitignore.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
# go build is a no-op when the binary is up to date with the sources.
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" -out benchmark/out "$@"
