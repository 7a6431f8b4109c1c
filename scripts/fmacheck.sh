#!/bin/sh
# fmacheck: fail if any internal/gen function compiles to a fused
# multiply-add on arm64. Go may fuse x*y + z into one instruction, which
# rounds once instead of twice, so a fused generator could draw
# different edges there than on amd64 and move the pinned generator and
# fingerprint tests. The generators keep their float expressions
# fusion-proof with explicit float64 conversions; this cross-builds
# cmd/trustnetd and the gen test binary (which links every generator)
# for arm64 and searches their disassembly. CI runs it in quickcheck.
#
#   ./scripts/fmacheck.sh
set -eu

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

GOARCH=arm64 go build -o "$dir/trustnetd" ./cmd/trustnetd
GOARCH=arm64 go test -c -o "$dir/gen.test" ./internal/gen

status=0
for bin in trustnetd gen.test; do
    hits=$(go tool objdump -s 'internal/gen\.' "$dir/$bin" | grep -E 'FMADDD|FMSUBD|FNMADDD|FNMSUBD' || true)
    if [ -n "$hits" ]; then
        echo "fmacheck: fused multiply-adds in internal/gen ($bin, arm64):" >&2
        echo "$hits" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "fmacheck: no fused multiply-adds in internal/gen on arm64"
exit "$status"
