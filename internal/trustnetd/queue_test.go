package trustnetd

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/obs"
	"github.com/trustnet/trustnet/internal/parallel"
)

// TestQueueSurvivesPanickingJob enqueues a job whose run panics and an
// ordinary job behind it on a one-worker queue, once with the panic on
// the job's goroutine and once at item 1 of a two-worker
// parallel.ForEach inside the job. The first job must end failed with
// the panic value in its error, release its graph once, count as failed
// and cache nothing; the worker must then run the second to done.
func TestQueueSurvivesPanickingJob(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(context.Context, jobs.Env) (*jobs.Artifact, error)
	}{
		{"job", func(context.Context, jobs.Env) (*jobs.Artifact, error) {
			panic("measurement bug")
		}},
		{"fan-out", func(ctx context.Context, _ jobs.Env) (*jobs.Artifact, error) {
			err := parallel.ForEach(ctx, 2, 2, func(_, i int) error {
				if i == 1 {
					panic("measurement bug in a fan-out")
				}
				return nil
			})
			return nil, err
		}},
	} {
		t.Run(c.name, func(t *testing.T) { testQueueSurvivesPanic(t, c.run) })
	}
}

// testQueueSurvivesPanic runs TestQueueSurvivesPanickingJob's checks
// with run as the panicking job's body.
func testQueueSurvivesPanic(t *testing.T, run func(context.Context, jobs.Env) (*jobs.Artifact, error)) {
	store := jobs.NewStore(t.TempDir())
	q := newQueue(store, 1, 4, time.Minute)
	t.Cleanup(func() { q.drain(10 * time.Second) })
	failed := obs.Default().Counter("trustnetd.jobs.failed")
	before := failed.Value()

	boom := jobs.New("boom", nil, run)
	fine := jobs.New("fine", nil, func(context.Context, jobs.Env) (*jobs.Artifact, error) {
		return &jobs.Artifact{Summary: "fine\n"}, nil
	})
	var releases atomic.Int32
	info := GraphInfo{Fingerprint: "g"}
	first, err := q.enqueue(boom, info, "g", func() { releases.Add(1) })
	if err != nil {
		t.Fatalf("enqueue the panicking job: %v", err)
	}
	second, err := q.enqueue(fine, info, "g", func() {})
	if err != nil {
		t.Fatalf("enqueue the ordinary job: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := q.wait(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "measurement bug") {
		t.Fatalf("panicking job: state %s, error %q; want failed, naming the panic value", st.State, st.Error)
	}
	if n := releases.Load(); n != 1 {
		t.Fatalf("panicking job released its graph %d times, want once", n)
	}
	if st.Cached || store.Load(st.Job, st.GraphFingerprint, st.ConfigFingerprint) != nil {
		t.Fatal("the panicking job left a cached artifact")
	}
	if got := failed.Value() - before; got != 1 {
		t.Fatalf("trustnetd.jobs.failed advanced by %d, want 1", got)
	}
	if st, err = q.wait(ctx, second.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job after the panic: state %s, error %q; want done", st.State, st.Error)
	}
}

// newRetainQueue returns a queue of workers that keeps retain finished
// tasks, drained at the end of the test.
func newRetainQueue(t *testing.T, workers, retain int) *queue {
	t.Helper()
	q := newQueue(jobs.NewStore(t.TempDir()), workers, 16, time.Minute)
	q.mu.Lock()
	q.retain = retain
	q.mu.Unlock()
	t.Cleanup(func() { q.drain(10 * time.Second) })
	return q
}

// gatedJob returns a job that closes started, if given, when it runs,
// then waits for gate to close, if given, and succeeds.
func gatedJob(name string, started chan<- struct{}, gate <-chan struct{}) jobs.Job {
	return jobs.New(name, nil, func(ctx context.Context, _ jobs.Env) (*jobs.Artifact, error) {
		if started != nil {
			close(started)
		}
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &jobs.Artifact{Summary: name + "\n"}, nil
	})
}

// enqueueOrFatal enqueues j on q with a no-op release and returns its ID.
func enqueueOrFatal(t *testing.T, q *queue, j jobs.Job) string {
	t.Helper()
	st, err := q.enqueue(j, GraphInfo{Fingerprint: "g"}, "g", func() {})
	if err != nil {
		t.Fatalf("enqueue %s: %v", j.Name(), err)
	}
	return st.ID
}

// waitOrFatal waits for a retained task to finish.
func waitOrFatal(t *testing.T, q *queue, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := q.wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("task %s ended %s (%s), want done", id, st.State, st.Error)
	}
	return st
}

// listedIDs returns the IDs q lists, in its order.
func listedIDs(q *queue) []string {
	var ids []string
	for _, st := range q.list() {
		ids = append(ids, st.ID)
	}
	return ids
}

// TestQueueRetainForgetsOldestFinishedFirst runs a queue that keeps two
// finished tasks, where the first task enqueued finishes third. Each
// task finishing past the count must forget the task that finished
// longest ago, not the one enqueued first, and count it as expired; a
// retained finished task holds no job and no release func.
func TestQueueRetainForgetsOldestFinishedFirst(t *testing.T) {
	q := newRetainQueue(t, 2, 2)
	expired := obs.Default().Counter("trustnetd.jobs.expired")
	before := expired.Value()

	gate := make(chan struct{})
	a := enqueueOrFatal(t, q, gatedJob("a", nil, gate))
	b := enqueueOrFatal(t, q, gatedJob("b", nil, nil))
	waitOrFatal(t, q, b)
	c := enqueueOrFatal(t, q, gatedJob("c", nil, nil))
	waitOrFatal(t, q, c)
	if got := expired.Value() - before; got != 0 {
		t.Fatalf("two finished tasks expired %d, want 0", got)
	}
	close(gate)
	waitOrFatal(t, q, a) // finished order: b, c, a
	if _, err := q.get(b); err == nil {
		t.Fatalf("%s, the oldest finished task, is still retained", b)
	}
	d := enqueueOrFatal(t, q, gatedJob("d", nil, nil))
	waitOrFatal(t, q, d) // finished order: c, a, d
	if _, err := q.get(c); err == nil {
		t.Fatalf("%s finished before %s but outlived it", c, a)
	}
	if got, want := listedIDs(q), []string{a, d}; !slices.Equal(got, want) {
		t.Fatalf("list = %v, want %v", got, want)
	}
	if got := expired.Value() - before; got != 2 {
		t.Fatalf("trustnetd.jobs.expired advanced by %d, want 2", got)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, id := range []string{a, d} {
		if tk := q.tasks[id]; tk.job != nil || tk.release != nil {
			t.Errorf("finished task %s still holds its job or release func", id)
		}
	}
}

// TestQueueRetainKeepsQueuedAndRunningTasks keeps one finished task on
// a two-worker queue while one worker is held by a running task and a
// last task waits in the intake behind four quick ones. The quick ones
// must expire oldest first while the running and the queued task stay,
// and the list must keep enqueue order throughout.
func TestQueueRetainKeepsQueuedAndRunningTasks(t *testing.T) {
	q := newRetainQueue(t, 2, 1)
	started, gateX, gateY := make(chan struct{}), make(chan struct{}), make(chan struct{})
	x := enqueueOrFatal(t, q, gatedJob("x", started, gateX))
	<-started
	var quick []string
	for i := 0; i < 4; i++ {
		quick = append(quick, enqueueOrFatal(t, q, gatedJob(fmt.Sprintf("quick%d", i), nil, nil)))
	}
	y := enqueueOrFatal(t, q, gatedJob("y", nil, gateY))
	waitOrFatal(t, q, quick[3])

	for _, id := range quick[:3] {
		if _, err := q.get(id); err == nil {
			t.Fatalf("%s is retained past the count", id)
		}
	}
	if st, err := q.get(x); err != nil || st.State != StateRunning {
		t.Fatalf("running task %s: %+v, %v; want running", x, st, err)
	}
	if st, err := q.get(y); err != nil || (st.State != StateQueued && st.State != StateRunning) {
		t.Fatalf("task %s behind the quick ones: %+v, %v; want queued or running", y, st, err)
	}
	if got, want := listedIDs(q), []string{x, quick[3], y}; !slices.Equal(got, want) {
		t.Fatalf("list = %v, want %v", got, want)
	}
	close(gateX)
	waitOrFatal(t, q, x)
	close(gateY)
	waitOrFatal(t, q, y)
	if got, want := listedIDs(q), []string{y}; !slices.Equal(got, want) {
		t.Fatalf("list after both finished = %v, want %v", got, want)
	}
}

// doneSignal is a context whose first Done call closes called: wait
// calls Done only once it holds the task, so a job gated on called
// finishes after its waiter has looked it up.
type doneSignal struct {
	context.Context
	once   sync.Once
	called chan struct{}
}

func (c *doneSignal) Done() <-chan struct{} {
	c.once.Do(func() { close(c.called) })
	return c.Context.Done()
}

// TestQueueRetainWaitReturnsStatusOfForgottenTask waits on a task of a
// queue that keeps no finished task, so the task is forgotten the
// moment it finishes, while the waiter blocks on it. The wait must
// still return the final status; a later lookup answers not found.
func TestQueueRetainWaitReturnsStatusOfForgottenTask(t *testing.T) {
	q := newRetainQueue(t, 1, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sig := &doneSignal{Context: ctx, called: make(chan struct{})}
	id := enqueueOrFatal(t, q, gatedJob("forgotten", nil, sig.called))

	st, err := q.wait(sig, id)
	if err != nil {
		t.Fatalf("wait on a task forgotten as it finished: %v", err)
	}
	if st.ID != id || st.State != StateDone {
		t.Fatalf("wait returned %+v, want %s done", st, id)
	}
	if _, err := q.get(id); err == nil {
		t.Fatalf("%s is retained by a queue that keeps no finished task", id)
	}
}
