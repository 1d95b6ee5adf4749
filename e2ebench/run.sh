#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload rrr-congested --seed 0 --seconds 20 --trace 0
#
# Build cache, binary, daemon state and trace files all stay under
# .bench_build/ in the checkout. The last line of standard output is the
# JSON result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
rev=unknown
if [ -e "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/e2ebench" && go build -buildvcs=false -o "$out/e2ebench" .)
exec "$out/e2ebench" -root "$root" -git-rev "$rev" "$@"
