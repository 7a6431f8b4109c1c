#!/usr/bin/env bash
# Crash-recovery smoke: a tight per-job timeout (a third of an
# uninterrupted run's wall time) must cut the figure1 measurement short
# (nonzero exit, partial artifacts), leave valid checkpoints behind, and
# a -resume rerun must complete with artifacts bit-identical to a run
# that was never interrupted. With its CSVs
# deleted, a second -resume pass must replay the finished job from the
# artifact cache (the only record that a job is done) and rewrite the
# CSVs byte-identically.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/experiments"
go build -o "$bin" ./cmd/experiments

ref="$tmp/ref"
crash="$tmp/crash"

echo "== reference run (uninterrupted) =="
start=$(date +%s%N)
"$bin" -run figure1 -quick -seed 1 -out "$ref" > "$tmp/ref.log"
ref_ms=$(( ($(date +%s%N) - start) / 1000000 ))

# A fixed budget stops cutting anything short once the job gets faster
# than it, so the interrupted run gets a third of the reference run's
# wall time, on whatever host this runs.
budget_ms=$(( ref_ms / 3 > 1 ? ref_ms / 3 : 1 ))
echo "== interrupted run (${budget_ms}ms budget, a third of the reference's ${ref_ms}ms; best-effort) =="
if "$bin" -run figure1 -quick -seed 1 -timeout "${budget_ms}ms" -best-effort -out "$crash" > "$tmp/crash.log" 2>&1; then
    echo "crashsmoke: the timeout-cut run exited 0, want nonzero" >&2
    cat "$tmp/crash.log" >&2
    exit 1
fi

ckpts=("$crash"/ckpt/*.json)
if [ ! -e "${ckpts[0]}" ]; then
    echo "crashsmoke: the interrupted run left no checkpoints" >&2
    cat "$tmp/crash.log" >&2
    exit 1
fi
echo "== validating ${#ckpts[@]} checkpoint(s) =="
go run ./scripts/jsonlint -want-schema trustnet/checkpoint/v1 "${ckpts[@]}"
go run ./scripts/jsonlint -want-schema trustnet/metrics/v1 "$crash/METRICS.json"

echo "== resumed run =="
"$bin" -run figure1 -quick -seed 1 -resume -out "$crash" > "$tmp/resume.log"

echo "== comparing artifacts against the uninterrupted reference =="
for f in figure1a.csv figure1b.csv figure1-sources.csv; do
    cmp "$ref/$f" "$crash/$f"
done

echo "== rerun must replay the finished job from the artifact cache =="
rm "$crash"/figure1a.csv "$crash"/figure1b.csv "$crash"/figure1-sources.csv
"$bin" -run figure1 -quick -seed 1 -resume -out "$crash" > "$tmp/replay.log"
grep -q "CACHED figure1" "$tmp/replay.log"
for f in figure1a.csv figure1b.csv figure1-sources.csv; do
    cmp "$ref/$f" "$crash/$f"
done

echo "crashsmoke: OK (interrupted run resumed to bit-identical artifacts)"
