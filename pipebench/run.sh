#!/usr/bin/env bash
# Builds poetd and the benchmark driver from this checkout's source, then
# runs one benchmark invocation. Run from the repository root:
#
#   bash pipebench/run.sh --workload races-plain --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run scratch files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(
	cd "$root/pipebench"
	go build -o "$out/bin/pipebench" . 1>&2
	go build -o "$out/bin/poetd" ocep/cmd/poetd 1>&2
)

exec "$out/bin/pipebench" -poetd "$out/bin/poetd" -work "$out/pipebench" "$@"
