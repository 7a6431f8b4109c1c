// Package parallel is the shared worker-pool fan-out used by every
// embarrassingly parallel measurement in the repository: the per-source
// mixing curves of Eq. 2 (internal/walk), the per-core BFS expansion
// envelopes of Eq. 4 (internal/expansion), the row-partitioned mat-vec
// of the Lanczos iteration behind the SLEM bound (internal/spectral), and
// the per-pivot Brandes accumulation (internal/centrality).
//
// The package enforces one determinism contract for all of them:
//
//   - Work is identified by item index, not by goroutine. ForEach and Map
//     assign item i to worker slot i%workers, so the set of items a slot
//     processes is a pure function of (n, workers) — never of scheduling.
//   - Per-item randomness must be seeded with SeedFor(root, i), a
//     SplitMix64 mix of the caller's root seed and the item index, so a
//     measurement produces bit-for-bit identical results at any worker
//     count, including workers=1.
//   - When several items fail, the error of the smallest failing index is
//     returned, so error reporting is deterministic too.
//
// Cost model: ForEach/Map spawn min(workers, n) goroutines once per call
// — O(workers) scheduling overhead amortized over n items. They add no
// synchronization on the hot path beyond the final WaitGroup join, so a
// fan-out over n independent items of cost C runs in O(n·C/workers) wall
// clock plus O(workers) constant overhead.
package parallel

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
)

// workerLabels caches the pprof label values for small slot indices so
// labeling a fan-out does not allocate per worker on the common path.
var workerLabels = func() [64]string {
	var ls [64]string
	for i := range ls {
		ls[i] = strconv.Itoa(i)
	}
	return ls
}()

// workerLabel returns the string form of a worker slot index.
func workerLabel(slot int) string {
	if slot < len(workerLabels) {
		return workerLabels[slot]
	}
	return strconv.Itoa(slot)
}

// Workers normalizes a requested worker count: values <= 0 become
// GOMAXPROCS, and the result is capped at items (never below 1) so callers
// can size per-slot accumulators without empty shards.
func Workers(requested, items int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(slot, i) for every i in [0, n) across at most workers
// goroutines (normalized by Workers). Item i is handled by slot i%workers,
// so slot assignment is deterministic; fn receives its slot index so
// callers can keep lock-free per-worker scratch and sharded accumulators.
//
// Cancellation is checked between items: once ctx is done, every slot
// stops before its next item and ForEach returns ctx.Err(). When fn
// returns an error the slot stops, the other slots finish their remaining
// items, and the error with the smallest item index is returned.
func ForEach(ctx context.Context, workers, n int, fn func(slot, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers, n)
	if workers == 1 {
		// Run inline: keeps single-worker stacks shallow and makes the
		// sequential path trivially identical to the parallel one. The
		// calling goroutine's pprof labels (experiment, stage) already
		// apply; re-labeling here would cost an allocation per call on
		// per-iteration fan-outs like the spectral mat-vec.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	type failure struct {
		index int
		err   error
	}
	fails := make([]failure, workers)
	for s := range fails {
		fails[s].index = -1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			// Each worker task carries a "worker" pprof label merged
			// with whatever the caller's context already carries (the
			// "experiment" and "stage" labels from obs.WithExperiment /
			// obs.StartSpan), so CPU profiles attribute every sample to
			// the (experiment, stage, worker) triple. One label set per
			// spawned goroutine — amortized over the slot's whole strided
			// item range, never per item.
			pprof.Do(ctx, pprof.Labels("worker", workerLabel(slot)), func(ctx context.Context) {
				for i := slot; i < n; i += workers {
					if err := ctx.Err(); err != nil {
						fails[slot] = failure{index: i, err: err}
						return
					}
					if err := fn(slot, i); err != nil {
						fails[slot] = failure{index: i, err: err}
						return
					}
				}
			})
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	first := failure{index: -1}
	for _, f := range fails {
		if f.index >= 0 && (first.index < 0 || f.index < first.index) {
			first = f
		}
	}
	if first.index >= 0 {
		return first.err
	}
	return nil
}

// Map runs fn(slot, i) for every i in [0, n) under the same scheduling and
// error contract as ForEach and returns the results in item order. Because
// out[i] depends only on fn(·, i), the returned slice is bit-for-bit
// identical at any worker count; callers that fold it sequentially inherit
// that determinism for free.
func Map[T any](ctx context.Context, workers, n int, fn func(slot, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(slot, i int) error {
		v, err := fn(slot, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Block is one contiguous item range [Start, End) produced by Blocks.
type Block struct {
	Start, End int
}

// Len returns the number of items in the block.
func (b Block) Len() int { return b.End - b.Start }

// Blocks partitions the items [0, n) into consecutive blocks of at most
// size items each (the last block may be shorter). It is the batch
// partitioner for kernels that amortize one shared scan across a block
// of items (blocked walk propagation, bit-parallel BFS): fanning the
// blocks out with ForEach/Map keeps the determinism contract, because
// the block boundaries depend only on (n, size) and every item stays in
// item order within its block. size <= 0 is treated as 1.
func Blocks(n, size int) []Block {
	if n <= 0 {
		return nil
	}
	if size < 1 {
		size = 1
	}
	out := make([]Block, 0, (n+size-1)/size)
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		out = append(out, Block{Start: start, End: end})
	}
	return out
}

// SeedFor derives the seed for item i from a root seed with a SplitMix64
// mix. It is the canonical per-item stream derivation of the determinism
// contract: streams are decorrelated even for adjacent roots or indices
// (unlike the additive root+i scheme, whose streams overlap shifted by
// one), and the result depends only on (root, i), never on worker count
// or scheduling order.
func SeedFor(root int64, i int) int64 {
	z := uint64(root) + uint64(i)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
