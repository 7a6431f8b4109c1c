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
//     hand the items out in index order to whichever worker slot is
//     free, so which slot runs an item depends on scheduling: what an
//     item produces must depend on its index only, and a per-slot
//     accumulator must give the same total whatever items it sees and
//     in whatever order. A slot is never used by two goroutines at once,
//     so per-slot scratch needs no lock.
//   - Per-item randomness must be seeded with SeedFor(root, i), a
//     SplitMix64 mix of the caller's root seed and the item index, so a
//     measurement produces bit-for-bit identical results at any worker
//     count, including workers=1.
//   - When several items fail, the error of the smallest failing index is
//     returned, so error reporting is deterministic too. A panic on a
//     worker goroutine is re-raised on the caller's (WorkerPanic), so a
//     caller that recovers its own panics recovers those too.
//
// Cost model: ForEach/Map spawn min(workers, n) goroutines once per call
// — O(workers) scheduling overhead amortized over n items — and each
// item costs one atomic add on the shared counter, so a fan-out over n
// independent items of cost C runs in O(n·C/workers) wall clock plus
// O(workers) constant overhead, and items of uneven cost keep every
// worker busy until the last items are claimed.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
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
// goroutines (normalized by Workers). The goroutines share one counter
// and each takes the next unclaimed item, in index order, as soon as it
// is free, so a slow item holds up only its own worker. A goroutine
// keeps its slot for the whole call, so fn can keep lock-free
// per-worker scratch and accumulators under slot; which items a slot
// runs depends on scheduling, so what fn produces must depend on i
// only, and a per-slot accumulator must not depend on the order or
// grouping of the items it sees.
//
// Cancellation is checked before every item: once ctx is done, every
// slot stops before its next item and ForEach returns ctx.Err(). When
// fn returns an error its slot stops, the other slots go on claiming
// items, and the error with the smallest item index is returned: items
// are claimed in index order, so the smallest failing item always ran.
//
// A panic in fn on a worker goroutine stops every slot from claiming
// further items, and once all have returned ForEach panics on the
// calling goroutine with a *WorkerPanic holding the value and the
// worker's stack of the smallest item that panicked. At one worker fn
// runs on the calling goroutine and its panic propagates as is.
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

	fan := &fanOut{n: n, fn: fn, fails: make([]failure, workers)}
	for s := range fan.fails {
		// A worker that never returns from work (fn called
		// runtime.Goexit) leaves its slot's entry as it is here.
		fan.fails[s].index = -1
	}
	for w := 0; w < workers; w++ {
		fan.wg.Add(1)
		go func(slot int) {
			defer fan.wg.Done()
			// Each worker task carries a "worker" pprof label merged
			// with whatever the caller's context already carries (the
			// "experiment" and "stage" labels from obs.WithExperiment /
			// obs.StartSpan), so CPU profiles attribute every sample to
			// the (experiment, stage, worker) triple. One label set per
			// spawned goroutine — amortized over every item the slot
			// claims, never per item.
			pprof.Do(ctx, pprof.Labels("worker", workerLabel(slot)), func(ctx context.Context) {
				fan.fails[slot] = fan.work(ctx, slot)
			})
		}(w)
	}
	fan.wg.Wait()
	first := failure{index: -1}
	for _, f := range fan.fails {
		if f.panic != nil && (first.panic == nil || f.index < first.index) {
			first = f
		}
	}
	if first.panic != nil {
		panic(first.panic)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, f := range fan.fails {
		if f.index >= 0 && (first.index < 0 || f.index < first.index) {
			first = f
		}
	}
	if first.index >= 0 {
		return first.err
	}
	return nil
}

// fanOut is the state one ForEach call's workers share.
type fanOut struct {
	n  int
	fn func(slot, i int) error
	wg sync.WaitGroup
	// next is the smallest unclaimed item.
	next atomic.Int64
	// halted is set once fn panics, so that no slot claims another item.
	halted atomic.Bool
	// fails holds each slot's first failure.
	fails []failure
}

// failure is where a slot stopped: the item (-1 if it ran out of items)
// and its error, or the panic it raised.
type failure struct {
	index int
	err   error
	panic *WorkerPanic
}

// work claims items for slot until none is left, ctx is done, fn fails
// or some slot panicked, and returns the slot's failure.
func (f *fanOut) work(ctx context.Context, slot int) (fail failure) {
	i := -1
	defer func() {
		if r := recover(); r != nil {
			f.halted.Store(true)
			fail = failure{index: i, panic: &WorkerPanic{Item: i, Value: r, Stack: debug.Stack()}}
		}
	}()
	for !f.halted.Load() {
		if i = int(f.next.Add(1) - 1); i >= f.n {
			break
		}
		if err := ctx.Err(); err != nil {
			return failure{index: i, err: err}
		}
		if err := f.fn(slot, i); err != nil {
			return failure{index: i, err: err}
		}
	}
	return failure{index: -1}
}

// WorkerPanic is the value ForEach panics with on the calling goroutine
// when fn panicked on one of its workers.
type WorkerPanic struct {
	// Item is the item whose fn panicked.
	Item int
	// Value is the value fn panicked with.
	Value any
	// Stack is the worker's stack where fn panicked (debug.Stack).
	Stack []byte
}

// Error reports the panic value and the worker's stack, so a re-panic
// that nothing recovers still says where fn panicked.
func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v [item %d of a parallel.ForEach]\n\nworker %s", p.Value, p.Item, p.Stack)
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
