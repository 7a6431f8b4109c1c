#!/bin/sh
# fmacheck: fail if the daemon's measurement path or a generator
# compiles to a fused multiply-add on arm64. Go may fuse x*y + z into one
# instruction, which rounds once instead of twice, so a fused generator
# could draw different edges there than on amd64 and move the pinned
# generator and fingerprint tests, and a fused measurement could report
# other bits than the pinned tables hold. The code keeps its float
# expressions fusion-proof with explicit float64 conversions; this
# cross-builds cmd/trustnetd and the gen test binary (which links every
# generator) for arm64 and searches their disassembly: every internal/
# function in trustnetd, and every internal/gen function in the test
# binary. CI runs it in quickcheck.
#
#   ./scripts/fmacheck.sh
set -eu

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

GOARCH=arm64 go build -o "$dir/trustnetd" ./cmd/trustnetd
GOARCH=arm64 go test -c -o "$dir/gen.test" ./internal/gen

status=0
# scan BIN SYMBOLS WHAT searches the functions of BIN whose names match
# the objdump regexp SYMBOLS and reports their fused multiply-adds as
# WHAT.
scan() {
    hits=$(go tool objdump -s "$2" "$dir/$1" | awk '
        /^TEXT / { sym = $2; next }
        /FMADDD|FMSUBD|FNMADDD|FNMSUBD/ { print sym ": " $0 }')
    if [ -n "$hits" ]; then
        echo "fmacheck: fused multiply-adds in $3 ($1, arm64):" >&2
        echo "$hits" >&2
        status=1
    fi
}
scan trustnetd 'trustnet/internal/' 'internal/'
scan gen.test 'internal/gen\.' 'internal/gen'
[ "$status" -eq 0 ] && echo "fmacheck: no fused multiply-adds in internal/ or internal/gen on arm64"
exit "$status"
