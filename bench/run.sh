#!/usr/bin/env bash
# Builds xseedload from the checkout this script lives in and runs it with
# the given arguments, from that checkout's root:
#
#   bash bench/run.sh --workload hot-xtp --seed 1 --seconds 10 --trace 0
#
# xseedload in turn builds ./cmd/xseedd. The Go build cache, GOPATH and
# binaries all live under .bench_build at the checkout root, so a run reads
# and writes nothing outside the checkout apart from the Go toolchain.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd bench && go build -o "$build/xseedload" ./xseedload)
exec "$build/xseedload" "$@"
