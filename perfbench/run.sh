#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload route-router --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in
# the checkout: the Go build and module caches, the compiler's scratch
# space, the benchmark binary and the span dumps of traced runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/hbserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; the program's sources (go.mod, internal/) are not here" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)

commit=unknown
if git -C "$root" rev-parse --git-dir >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse --short HEAD)
	if [[ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]]; then
		commit="$commit-dirty"
	fi
fi

exec "$out/perfbench" --commit "$commit" --spans-dir "$out/spans" "$@"
