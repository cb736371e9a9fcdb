#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload ckpt-stream --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache and
# temporary files, the binary, WAL and stripe-member files, and traces.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/perfbench" "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" \
	GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench/perfbench" .
exec "$out/perfbench/perfbench" --workdir "$out/perfbench" "$@"
