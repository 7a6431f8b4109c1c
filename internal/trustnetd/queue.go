package trustnetd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/obs"
	"github.com/trustnet/trustnet/internal/resilience"
)

// Observability instruments for the job queue.
var (
	obsJobsEnqueued  = obs.Default().Counter("trustnetd.jobs.enqueued")
	obsJobsCompleted = obs.Default().Counter("trustnetd.jobs.completed")
	obsJobsFailed    = obs.Default().Counter("trustnetd.jobs.failed")
	obsJobsRejected  = obs.Default().Counter("trustnetd.jobs.rejected")
)

// Job states reported by the status endpoint.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// task is one queued measurement: the bound job, the pinned graph, and
// the mutable status the API reports. Status fields are guarded by the
// queue mutex.
type task struct {
	status JobStatus
	// seq is the task's position in the enqueue sequence; it seeds the
	// retry jitter so concurrent tasks back off on distinct schedules.
	seq     int
	job     jobs.Job
	release func() // unpins the graph; called exactly once, after the run
	done    chan struct{}
}

// queue is the daemon's async measurement executor: a bounded intake
// channel drained by a fixed worker pool. Each task runs through a
// jobs.Runner sharing the daemon's artifact store and single-flight
// group, under a resilience.Policy whose per-attempt deadline bounds
// every try. Drain closes the intake and waits for queued work to
// finish — in-flight measurements complete, they are never severed.
type queue struct {
	store  *jobs.Store
	flight *jobs.Flight
	outDir string
	policy resilience.Policy

	mu     sync.Mutex
	tasks  map[string]*task
	order  []string
	nextID int
	closed bool

	pending chan *task
	wg      sync.WaitGroup

	// runCtx cancels in-flight measurements when a drain deadline
	// expires; until then workers run under it unbounded.
	runCtx    context.Context
	cancelRun context.CancelFunc
}

// newQueue starts workers goroutines draining a depth-bounded intake.
func newQueue(store *jobs.Store, outDir string, workers, depth int, policy resilience.Policy) *queue {
	if workers < 1 {
		workers = 2
	}
	if depth < 1 {
		depth = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &queue{
		store:     store,
		flight:    &jobs.Flight{},
		outDir:    outDir,
		policy:    policy,
		tasks:     make(map[string]*task),
		pending:   make(chan *task, depth),
		runCtx:    ctx,
		cancelRun: cancel,
	}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// errQueueFull rejects a job while the intake holds its full depth of
// unstarted jobs: a transient condition, unlike a draining queue.
var errQueueFull = errors.New("queue is full")

// enqueue admits a bound job pinned to a graph, returning its status
// snapshot. The release callback is invoked after the run (or
// immediately on rejection), never before. A full intake returns an
// error wrapping errQueueFull.
func (q *queue) enqueue(j jobs.Job, info GraphInfo, graphKey string, release func()) (JobStatus, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		release()
		obsJobsRejected.Inc()
		return JobStatus{}, fmt.Errorf("queue is draining")
	}
	q.nextID++
	id := fmt.Sprintf("j-%06d", q.nextID)
	t := &task{
		status: JobStatus{
			ID:                id,
			Job:               j.Name(),
			Graph:             graphKey,
			GraphFingerprint:  info.Fingerprint,
			ConfigFingerprint: j.Fingerprint(),
			State:             StateQueued,
		},
		seq:     q.nextID,
		job:     j,
		release: release,
		done:    make(chan struct{}),
	}
	select {
	case q.pending <- t:
	default:
		q.mu.Unlock()
		release()
		obsJobsRejected.Inc()
		return JobStatus{}, fmt.Errorf("%w (%d pending)", errQueueFull, cap(q.pending))
	}
	q.tasks[id] = t
	q.order = append(q.order, id)
	st := t.status
	q.mu.Unlock()
	obsJobsEnqueued.Inc()
	return st, nil
}

// worker drains the intake until Drain closes it.
func (q *queue) worker() {
	defer q.wg.Done()
	for t := range q.pending {
		q.run(t)
	}
}

// run executes one task through the cache-and-dedup runner under the
// retry policy, recording the outcome on the task status.
func (q *queue) run(t *task) {
	q.mu.Lock()
	t.status.State = StateRunning
	q.mu.Unlock()

	runner := &jobs.Runner{
		Cache:  q.store,
		Flight: q.flight,
		Env:    jobs.Env{GraphFingerprint: t.status.GraphFingerprint},
		OutDir: filepath.Join(q.outDir, "jobs", t.status.ID),
		Stdout: io.Discard,
	}
	var cached bool
	start := time.Now()
	pol := q.policy
	pol.Seed = int64(t.seq) // per-task deterministic jitter seed
	outcome, err := pol.Run(q.runCtx, func(ctx context.Context, _ int) error {
		var runErr error
		cached, runErr = runner.Run(ctx, t.job)
		return runErr
	})
	t.release()

	q.mu.Lock()
	t.status.Cached = cached
	t.status.Attempts = outcome.Attempts
	t.status.WallSeconds = time.Since(start).Seconds()
	if err != nil {
		t.status.State = StateFailed
		t.status.Error = err.Error()
	} else {
		t.status.State = StateDone
	}
	q.mu.Unlock()
	close(t.done)
	if err != nil {
		obsJobsFailed.Inc()
	} else {
		obsJobsCompleted.Inc()
	}
}

// get returns a task's status snapshot.
func (q *queue) get(id string) (JobStatus, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tasks[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("job %q not found", id)
	}
	return t.status, nil
}

// wait blocks until the task finishes or ctx ends, returning the final
// status. It backs the poll endpoint's optional wait parameter.
func (q *queue) wait(ctx context.Context, id string) (JobStatus, error) {
	q.mu.Lock()
	t, ok := q.tasks[id]
	q.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("job %q not found", id)
	}
	select {
	case <-t.done:
	case <-ctx.Done():
	}
	return q.get(id)
}

// list returns every task's status in enqueue order.
func (q *queue) list() []JobStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]JobStatus, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, q.tasks[id].status)
	}
	return out
}

// drain stops intake and waits up to timeout for queued and running
// tasks to finish. Tasks still running at the deadline are canceled
// through the run context (they fail with a context error rather than
// being abandoned mid-write). It reports whether the queue drained
// cleanly.
func (q *queue) drain(timeout time.Duration) bool {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.pending)
	}
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		q.cancelRun()
		<-done
		return false
	}
}
