#!/usr/bin/env bash
# Builds and runs the served-KV benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload mc-read-zipf --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and the span files all
# stay under .bench_build/ in the current directory. Build output goes
# to stderr; the benchmark's last stdout line is its JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

commit=""
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
	git -C "$root" diff --quiet HEAD -- . 2>/dev/null || commit="$commit-dirty"
fi

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -out "$out" -commit "$commit" "$@"
