#!/usr/bin/env bash
# Builds cmd/trustnetd and the perfbench program from the checkout it is
# run in, then runs perfbench with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 15 --trace 0
#
# Every build product and all run state stay under .bench_build/ in the
# checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/trustnetd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/trustnetd and perfbench/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$build/bin/trustnetd" ./cmd/trustnetd >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -root "$root" -daemon "$build/bin/trustnetd" "$@"
