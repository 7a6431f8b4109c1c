package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersNormalization(t *testing.T) {
	cases := []struct {
		requested, items, want int
	}{
		{0, 100, runtime.GOMAXPROCS(0)},
		{-3, 100, runtime.GOMAXPROCS(0)},
		{4, 100, 4},
		{8, 3, 3},
		{5, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.items); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.items, got, c.want)
		}
	}
}

func TestForEachVisitsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 33} {
		const n = 100
		var visits [n]int32
		err := ForEach(context.Background(), workers, n, func(_, i int) error {
			atomic.AddInt32(&visits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: item %d visited %d times", workers, i, v)
			}
		}
	}
}

// TestForEachClaimsItemsAsWorkersFree holds item 0 until items 1…n−1
// have all run. A free worker must claim them, so the call finishes; a
// fixed item-to-slot rule that gives one slot item 0 and some later
// item would never run that item, and the timeout fails the test
// instead of hanging it.
func TestForEachClaimsItemsAsWorkersFree(t *testing.T) {
	const n = 16
	var rest atomic.Int32
	restDone := make(chan struct{})
	err := ForEach(context.Background(), 2, n, func(_, i int) error {
		if i > 0 {
			if rest.Add(1) == n-1 {
				close(restDone)
			}
			return nil
		}
		select {
		case <-restDone:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("item 0 still waiting after 10s: %d of items 1..%d ran", rest.Load(), n-1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForEachAllocations bounds the allocations of one fan-out. Each
// worker goroutine costs two closures and the pprof label context it
// runs under, whose cost the toolchain sets and the test measures (3
// with Go 1.24); the call shares two more, its state and the failure
// list. Claiming an item allocates nothing. With Go 1.24 two workers
// read 12 and four 22, against 13 and 23 under strided assignment.
func TestForEachAllocations(t *testing.T) {
	ctx := context.Background()
	label := testing.AllocsPerRun(100, func() {
		pprof.Do(ctx, pprof.Labels("worker", workerLabel(1)), func(context.Context) {})
	})
	for _, workers := range []int{2, 4} {
		allocs := testing.AllocsPerRun(100, func() {
			_ = ForEach(ctx, workers, 256, func(_, _ int) error { return nil })
		})
		if bound := float64(workers)*(label+2) + 2; allocs > bound {
			t.Errorf("workers=%d: %v allocations per ForEach, want at most %v (%v per pprof label context)", workers, allocs, bound, label)
		}
	}
}

// TestForEachRepanicsOnCaller panics in one item of a two-worker
// fan-out and checks that the caller's deferred recover sees it, with
// the value, the item and the worker's stack, and that no further item
// is claimed after it.
func TestForEachRepanicsOnCaller(t *testing.T) {
	var ran atomic.Int32
	got := func() (r any) {
		defer func() { r = recover() }()
		_ = ForEach(context.Background(), 2, 1000, func(_, i int) error {
			ran.Add(1)
			if i == 1 {
				panic("measurement bug in a fan-out")
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		return nil
	}()
	wp, ok := got.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T %v, want *WorkerPanic", got, got)
	}
	if wp.Value != "measurement bug in a fan-out" || wp.Item != 1 {
		t.Errorf("recovered value %v at item %d, want the fn panic at item 1", wp.Value, wp.Item)
	}
	if !strings.Contains(string(wp.Stack), "TestForEachRepanicsOnCaller") {
		t.Errorf("worker stack does not name the panicking function:\n%s", wp.Stack)
	}
	if !strings.Contains(wp.Error(), "measurement bug in a fan-out") {
		t.Errorf("Error() = %q, want it to carry the panic value", wp.Error())
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("all %d items ran after the panic", n)
	}
}

func TestForEachReturnsSmallestIndexError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		err := ForEach(context.Background(), workers, 50, func(_, i int) error {
			if i >= 10 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 10 failed" {
			t.Errorf("workers=%d: err = %v, want item 10 failed", workers, err)
		}
	}
}

func TestForEachHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done int32
	err := ForEach(ctx, 4, 1000, func(_, i int) error {
		if atomic.AddInt32(&done, 1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt32(&done); n >= 1000 {
		t.Errorf("all %d items ran despite cancellation", n)
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(_, i int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEquivalenceMapWorkerCounts is the package-level determinism
// contract: Map output is identical at every worker count.
func TestEquivalenceMapWorkerCounts(t *testing.T) {
	run := func(workers int) []int64 {
		out, err := Map(context.Background(), workers, 64, func(_, i int) (int64, error) {
			return SeedFor(42, i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8, 64} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(context.Background(), 4, 10, func(_, i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if out != nil {
		t.Errorf("out = %v, want nil on error", out)
	}
}

func TestSeedForDecorrelated(t *testing.T) {
	// Distinct (root, i) pairs must give distinct seeds, including the
	// (root+1, i) vs (root, i+1) collisions of the additive scheme.
	seen := make(map[int64][2]int64)
	for root := int64(0); root < 64; root++ {
		for i := 0; i < 64; i++ {
			s := SeedFor(root, i)
			if prev, ok := seen[s]; ok {
				t.Fatalf("SeedFor(%d,%d) collides with SeedFor(%d,%d)", root, i, prev[0], prev[1])
			}
			seen[s] = [2]int64{root, int64(i)}
		}
	}
	if SeedFor(7, 3) != SeedFor(7, 3) {
		t.Error("SeedFor is not a pure function")
	}
}

// TestForEachRaceShardedAccumulation exercises the sharded-accumulator
// pattern the measurement packages use, so the -race job covers the
// merge protocol: per-slot shards written without locks, merged after.
// Each item also marks its slot busy while it runs, so two goroutines
// on one slot fail the test even without the race detector.
func TestForEachRaceShardedAccumulation(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		const n = 2048
		busy := make([]atomic.Bool, Workers(workers, n))
		shards := make([]int64, len(busy))
		err := ForEach(context.Background(), workers, n, func(slot, i int) error {
			if !busy[slot].CompareAndSwap(false, true) {
				return fmt.Errorf("slot %d already in use when item %d started", slot, i)
			}
			shards[slot] += int64(i)
			if i%64 == 0 {
				runtime.Gosched()
			}
			busy[slot].Store(false)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var total int64
		for _, s := range shards {
			total += s
		}
		if want := int64(n) * (n - 1) / 2; total != want {
			t.Fatalf("workers=%d: total = %d, want %d", workers, total, want)
		}
	}
}

func TestBlocksPartition(t *testing.T) {
	cases := []struct {
		n, size int
		want    []Block
	}{
		{0, 4, nil},
		{-2, 4, nil},
		{5, 2, []Block{{0, 2}, {2, 4}, {4, 5}}},
		{4, 4, []Block{{0, 4}}},
		{4, 99, []Block{{0, 4}}},
		{3, 0, []Block{{0, 1}, {1, 2}, {2, 3}}}, // size <= 0 behaves as 1
	}
	for _, c := range cases {
		got := Blocks(c.n, c.size)
		if len(got) != len(c.want) {
			t.Errorf("Blocks(%d, %d) = %v, want %v", c.n, c.size, got, c.want)
			continue
		}
		covered := 0
		for i, b := range got {
			if b != c.want[i] {
				t.Errorf("Blocks(%d, %d)[%d] = %v, want %v", c.n, c.size, i, b, c.want[i])
			}
			covered += b.Len()
		}
		if c.n > 0 && covered != c.n {
			t.Errorf("Blocks(%d, %d) covers %d items", c.n, c.size, covered)
		}
	}
}
