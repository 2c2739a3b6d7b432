#!/usr/bin/env bash
# Builds the benchmark and the tianhed daemon from the checkout it is run in,
# then runs one benchmark pass. Run it from the repository root:
#
#   bash _perfbench/run.sh --workload lu-node --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binaries, Go build cache, tool state) lands
# under .bench_build/ in the checkout. The build is not timed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$root/_perfbench" && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/tianhed" ./cmd/tianhed

commit=none
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
fi
source=$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)

exec "$out/bin/perfbench" --tianhed "$out/bin/tianhed" --commit "$commit" --source "$source" "$@"
