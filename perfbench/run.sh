#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it.
# Every file it writes (Go build cache, binary, temp data, results and
# traces) goes under $CARGO_TARGET_DIR, default .bench_build, in the
# checkout root. Arguments pass through to the binary:
#
#   bash perfbench/run.sh --workload search_miss --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare DIR_A DIR_B
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
go -C perfbench build -o "$out/perfbench" .
BENCH_WORKDIR="$out" exec "$out/perfbench" "$@"
