#!/usr/bin/env bash
# Scale smoke: stream a 10^6-node preferential-attachment graph straight
# to a TNG2 image in bounded memory (GOMEMLIMIT holds the generator plus
# the external-sort CSR writer well under the in-RAM graph size), mmap it
# back, and run the measurement suite on the mapped view twice, under
# GOMAXPROCS=1 and GOMAXPROCS=4. The measurements' worker count defaults
# to GOMAXPROCS, so the two runs fan the walk's two 16-source blocks, the
# BFS's two 64-core batches and the SLEM's row spans (1 against 4) out
# differently. The two reports must be byte-identical — the determinism
# contract extended to the scale substrate.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
gengraph="$tmp/gengraph"
measure="$tmp/measure"
go build -o "$gengraph" ./cmd/gengraph
go build -o "$measure" ./cmd/measure

echo "== streaming 10^6-node BA graph to TNG2 (GOMEMLIMIT=512MiB) =="
GOMEMLIMIT=512MiB "$gengraph" -model ba -n 1000000 -param 8 -seed 1 \
    -stream -out "$tmp/ba.tng2" | tee "$tmp/gen.log"
grep -q "1000000 nodes" "$tmp/gen.log"

echo "== measuring the mapped view: 1 worker vs 4 =="
# Capped measurement knobs: the smoke exercises the substrate end to end,
# not the full paper protocol (that is cmd/experiments' job).
args=(-in "$tmp/ba.tng2" -seed 1 -sources 32 -steps 10 -expansion-sources 128 -spectral-tol 1e-4)
GOMAXPROCS=1 GOMEMLIMIT=2GiB "$measure" "${args[@]}" all > "$tmp/w1.txt"
GOMAXPROCS=4 GOMEMLIMIT=2GiB "$measure" "${args[@]}" all > "$tmp/w4.txt"

echo "== comparing reports =="
if ! cmp "$tmp/w1.txt" "$tmp/w4.txt"; then
    echo "scalesmoke: the 4-worker report diverged from the 1-worker one:" >&2
    diff "$tmp/w1.txt" "$tmp/w4.txt" >&2 || true
    exit 1
fi
grep -q "n=1000000" "$tmp/w1.txt"

echo "scalesmoke: OK (10^6-node graph streamed, mapped, measured; 1- and 4-worker reports byte-identical)"
