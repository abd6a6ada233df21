#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the checkout's root (Go's
# build cache included, so nothing is written outside the checkout) and
# runs it with the given flags. In a directory without the repository's
# sources the build fails and so does this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local
(cd "$here" && go build -buildvcs=false -o "$build/gossipbench" .)
exec "$build/gossipbench" "$@"
