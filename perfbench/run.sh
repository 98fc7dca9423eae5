#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments (see README.md). Run from the repository root.
# Build outputs, the Go build cache, and the Go tool's own state stay
# under .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && HOME="$build" XDG_CONFIG_HOME="$build/config" \
	go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
