#!/usr/bin/env bash
# Builds stmkvd and the benchmark from the checkout this script sits in,
# then runs one benchmark invocation; the arguments pass through:
#
#   bash perfbench/run.sh --workload kv-read --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/stmkvd" ]; then
	echo "run.sh: $root holds no stmkvd source tree to build" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/run"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off

(cd "$root" && go build -o "$build/bin/stmkvd" ./cmd/stmkvd) >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

# The revision: git's when the checkout is a repository, else a hash of
# the Go sources.
if [ -d "$root/.git" ] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	:
else
	commit="src-sha256:$(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

exec "$build/bin/perfbench" --stmkvd "$build/bin/stmkvd" --workdir "$build/run" --commit "$commit" "$@"
