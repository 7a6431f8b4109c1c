#!/usr/bin/env bash
# Crash-recovery smoke at job granularity. The artifact cache under
# <out>/cache is the only record of finished work: a job cut short
# writes and caches nothing, and a plain rerun replays the finished jobs
# and runs the cut one again from its start.
#
# A per-job timeout of a third of an uninterrupted figure1 run's wall
# time must cut figure1 short in a `-run tableI,figure1` run (nonzero
# exit, FAILED figure1, no figure1a.csv) while tableI finishes; the
# run's METRICS.json and cache entries must parse with their schemas. A
# plain rerun must replay tableI, run figure1 again, and reproduce the
# reference's four files byte for byte. A third run, with the files
# deleted, must replay both jobs and rewrite the files byte-identically.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/experiments"
go build -o "$bin" ./cmd/experiments

ref="$tmp/ref"
crash="$tmp/crash"
files=(tableI.txt figure1a.csv figure1b.csv figure1-sources.csv)
args=(-run tableI,figure1 -quick -seed 1)

echo "== reference runs (uninterrupted) =="
"$bin" -run tableI -quick -seed 1 -no-cache -out "$ref" > "$tmp/ref-tableI.log"
start=$(date +%s%N)
"$bin" -run figure1 -quick -seed 1 -no-cache -out "$ref" > "$tmp/ref-figure1.log"
ref_ms=$(( ($(date +%s%N) - start) / 1000000 ))

# A fixed budget stops cutting anything short once the job gets faster
# than it, so the interrupted run gets a third of the reference figure1
# run's wall time, on whatever host this runs.
budget_ms=$(( ref_ms / 3 > 1 ? ref_ms / 3 : 1 ))
echo "== interrupted run (${budget_ms}ms per job, a third of the reference figure1 run's ${ref_ms}ms) =="
if "$bin" "${args[@]}" -timeout "${budget_ms}ms" -out "$crash" > "$tmp/crash.log" 2>&1; then
    echo "crashsmoke: the timeout-cut run exited 0, want nonzero" >&2
    cat "$tmp/crash.log" >&2
    exit 1
fi
if ! grep -q "FAILED figure1" "$tmp/crash.log"; then
    echo "crashsmoke: the interrupted run did not report FAILED figure1" >&2
    cat "$tmp/crash.log" >&2
    exit 1
fi
if [ -e "$crash/figure1a.csv" ]; then
    echo "crashsmoke: the cut figure1 job wrote figure1a.csv" >&2
    exit 1
fi
if [ -e "$crash/ckpt" ]; then
    echo "crashsmoke: the run wrote $crash/ckpt; the cache is the only record of finished work" >&2
    exit 1
fi

entries=("$crash"/cache/*.json)
if [ ! -e "${entries[0]}" ]; then
    echo "crashsmoke: the interrupted run cached nothing (tableI must finish inside ${budget_ms}ms)" >&2
    cat "$tmp/crash.log" >&2
    exit 1
fi
echo "== validating METRICS.json and ${#entries[@]} cache entrie(s) =="
go run ./scripts/jsonlint -want-schema trustnet/metrics/v1 "$crash/METRICS.json"
go run ./scripts/jsonlint -want-schema trustnet/artifact/v4 "${entries[@]}"

echo "== rerun: replay tableI, run figure1 again =="
"$bin" "${args[@]}" -out "$crash" > "$tmp/rerun.log"
grep -q "CACHED tableI" "$tmp/rerun.log"
if grep -q "CACHED figure1" "$tmp/rerun.log"; then
    echo "crashsmoke: the cut figure1 job replayed from the cache" >&2
    exit 1
fi
for f in "${files[@]}"; do
    cmp "$ref/$f" "$crash/$f"
done

echo "== third run, files deleted: both jobs replay from the cache =="
for f in "${files[@]}"; do
    rm "$crash/$f"
done
"$bin" "${args[@]}" -out "$crash" > "$tmp/replay.log"
grep -q "CACHED tableI" "$tmp/replay.log"
grep -q "CACHED figure1" "$tmp/replay.log"
for f in "${files[@]}"; do
    cmp "$ref/$f" "$crash/$f"
done

echo "crashsmoke: OK (the cut job reran to bit-identical files; finished jobs replayed)"
