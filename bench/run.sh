#!/usr/bin/env bash
# Builds drbench from this checkout and runs it with the given arguments,
# e.g. bash bench/run.sh --workload serve-open --seed 3 --seconds 20 --trace 0
#
# Everything the build writes (the binary, Go's build cache, temporary
# files) stays under .bench_build/ at the repository root, and the Go
# toolchain is kept offline: no toolchain or module downloads.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "drbench: $root is not a full checkout of the repository (no go.mod)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd bench && go build -trimpath -o "$out/drbench" ./cmd/drbench)
exec "$out/drbench" "$@"
