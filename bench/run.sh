#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it
# there; every argument goes to the program (see README.md). The build
# cache, the build's scratch space, the binary and whatever else the go
# command keeps under a home directory stay inside the checkout, in the
# directory the root .gitignore names.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$PWD/../.bench_build"
mkdir -p "$build/tmp" "$build/home"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/gopath" \
	GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOFLAGS= GOTOOLCHAIN=local \
	go build -o "$build/bench" .
exec "$build/bench" "$@"
