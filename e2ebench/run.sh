#!/usr/bin/env bash
# Builds bagcd and the benchmark from this checkout, then runs the
# benchmark. Run from the repository root:
#
#   bash e2ebench/run.sh --workload acyclic-cold --seed 1 --seconds 30 --trace 0
#
# Every build output, Go cache and bagcd data directory stays under
# .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
commit=unknown
if git rev-parse --short=12 HEAD >/dev/null 2>&1; then
	commit=$(git rev-parse --short=12 HEAD)
fi
go build -buildvcs=false -ldflags "-X bagconsistency/internal/buildinfo.Commit=$commit" \
	-o "$out/bagcd" ./cmd/bagcd
(cd e2ebench && go build -buildvcs=false -o "$out/e2ebench" .)
exec "$out/e2ebench" -bagcd "$out/bagcd" -scratch "$out" "$@"
