#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload mpdata-sync --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files) goes
# under $CARGO_TARGET_DIR, default .bench_build, inside the repository.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" XDG_CONFIG_HOME="$out/go-config"
export GOPATH="$out/go-path" GOMODCACHE="$out/go-path/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
