#!/usr/bin/env bash
# Builds ncbench from the checkout's source and runs it with the given
# flags. Run it from the repository root:
#
#   bash cmd/ncbench/run.sh --workload serve-cached --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and every file the run writes stay in
# the build directory ($CARGO_TARGET_DIR, default .bench_build). The
# first run compiles the standard library into that cache.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

(cd "$src" && go build -o "$out/ncbench" .) >&2
exec "$out/ncbench" -workdir "$out/ncbench-work" "$@"
