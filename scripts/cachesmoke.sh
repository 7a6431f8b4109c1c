#!/usr/bin/env bash
# Cache smoke: the content-addressed artifact cache must turn an
# unchanged rerun into a pure replay. Run tableI twice into the same
# -out: the second run must log a CACHED line for every selected job,
# produce byte-identical artifacts, and its METRICS window must show
# zero job executions. A -no-cache rerun must recompute, still
# byte-identically.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/experiments"
go build -o "$bin" ./cmd/experiments

out="$tmp/out"

echo "== first run (cold cache) =="
"$bin" -run tableI -quick -seed 1 -out "$out" > "$tmp/first.log"
if grep -q "CACHED tableI" "$tmp/first.log"; then
    echo "cachesmoke: cold run claimed a cache hit" >&2
    exit 1
fi
cp "$out/tableI.txt" "$tmp/tableI.first.txt"

entries=("$out"/cache/*.json)
if [ ! -e "${entries[0]}" ]; then
    echo "cachesmoke: first run left no cache entries" >&2
    exit 1
fi
echo "== validating ${#entries[@]} cache entrie(s) =="
go run ./scripts/jsonlint -want-schema trustnet/artifact/v4 "${entries[@]}"

echo "== second run (must be an all-hits replay) =="
"$bin" -run tableI -quick -seed 1 -out "$out" > "$tmp/second.log"
grep -q "CACHED tableI" "$tmp/second.log"
cmp "$out/tableI.txt" "$tmp/tableI.first.txt"

echo "== METRICS window of the replay must show zero executions =="
python3 - "$out/METRICS.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
[job] = doc["jobs"]
c = job["metrics"]["counters"]
assert c.get("jobs.cache.hits", 0) == 1, c
assert c.get("jobs.run.executed", 0) == 0, c
assert c.get("spectral.slem.iterations", 0) == 0, c
EOF

echo "== -no-cache rerun must recompute, byte-identically =="
"$bin" -run tableI -quick -seed 1 -no-cache -out "$out" > "$tmp/nocache.log"
if grep -q "CACHED tableI" "$tmp/nocache.log"; then
    echo "cachesmoke: -no-cache still replayed from cache" >&2
    exit 1
fi
cmp "$out/tableI.txt" "$tmp/tableI.first.txt"

echo "== corrupted entry must fall back to recompute =="
for e in "${entries[@]}"; do echo "garbage" > "$e"; done
"$bin" -run tableI -quick -seed 1 -out "$out" > "$tmp/corrupt.log"
if grep -q "CACHED tableI" "$tmp/corrupt.log"; then
    echo "cachesmoke: corrupted entry was replayed" >&2
    exit 1
fi
cmp "$out/tableI.txt" "$tmp/tableI.first.txt"

echo "== cache stats =="
mkdir -p out
{
    echo "cache entries and sizes after the smoke sequence:"
    ls -l "$out/cache"
    du -sb "$out/cache"
} | tee out/CACHE_STATS.txt

echo "cachesmoke: OK (second run replayed byte-identical artifacts with zero executions)"
