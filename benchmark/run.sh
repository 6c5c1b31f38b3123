#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout.
# Everything the build writes (binary, Go build cache, Go's own config)
# stays under .bench_build/ inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/jordperf" .)
cd "$root"
exec "$build/jordperf" "$@"
