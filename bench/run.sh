#!/usr/bin/env bash
# Builds ppserve and ppload from the checkout's source and runs ppload.
# Everything the build and the run write stays under bench/out/.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
cd "$root"

out="$bench/out"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
# One go invocation builds both binaries: ppserve is a package of the root
# module, which bench/go.mod reaches through its replace directive. In a
# directory without the root module this fails, and so does the benchmark.
(cd "$bench" && go build -buildvcs=false -o "$out/bin/" ./ppload pushpull/cmd/ppserve) >&2

# The generator gets the same two cores the child does.
export GOMAXPROCS=2
exec "$out/bin/ppload" "$@"
