#!/usr/bin/env bash
# Builds the served-path benchmark from this checkout's sources and runs
# it with the given flags, from the repository root. Build cache, binary,
# data directories and span dumps all stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ]; then
	echo "perfbench: no expertfind sources at $root to benchmark" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -dir "$out" "$@"
