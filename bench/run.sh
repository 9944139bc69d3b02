#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload sweep-lockstep --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --compare a.jsonl b.jsonl
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the binary, the Go build cache, the toolchain's config and
# temporary files, and the span files of traced runs. The build needs the
# repository's Go module one directory above bench/, so outside a checkout it
# fails and the script exits non-zero without printing a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
