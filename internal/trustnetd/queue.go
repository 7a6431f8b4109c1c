package trustnetd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/obs"
)

// Observability instruments for the job queue.
var (
	obsJobsEnqueued  = obs.Default().Counter("trustnetd.jobs.enqueued")
	obsJobsCompleted = obs.Default().Counter("trustnetd.jobs.completed")
	obsJobsFailed    = obs.Default().Counter("trustnetd.jobs.failed")
	obsJobsRejected  = obs.Default().Counter("trustnetd.jobs.rejected")
	obsJobsExpired   = obs.Default().Counter("trustnetd.jobs.expired")
)

// maxFinishedTasks bounds the finished tasks a queue keeps. Past it the
// oldest finished task is forgotten, in the order tasks finished: its ID
// answers 404, and repeating its request replays the artifact from the
// cache. Queued and running tasks are bounded by the intake depth and
// the worker count, so the task table is bounded too.
const maxFinishedTasks = 4096

// Job states reported by the status endpoint.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// task is one queued measurement: the bound job, the pinned graph, and
// the mutable status the API reports. Status fields are guarded by the
// queue mutex. A finished task keeps only its status: the run drops the
// job, whose closure holds the graph view, and the release func.
type task struct {
	status  JobStatus
	job     jobs.Job
	release func() // unpins the graph; called exactly once, after the run
	done    chan struct{}
}

// queue is the daemon's async measurement executor: a bounded intake
// channel drained by a fixed worker pool. Each task runs once through a
// jobs.Runner sharing the daemon's artifact store and single-flight
// group, under the per-job deadline; a failed run is a failed job.
// Drain closes the intake and waits for queued work to finish —
// in-flight measurements complete, they are never severed. The task
// table holds every queued and running task and the newest retain
// finished ones.
type queue struct {
	store      *jobs.Store
	flight     *jobs.Flight
	jobTimeout time.Duration
	retain     int // finished tasks kept; maxFinishedTasks

	mu       sync.Mutex
	tasks    map[string]*task
	order    []string // enqueue order; forgetOldest drops forgotten IDs
	finished []string // retained finished IDs, oldest first
	nextID   int
	closed   bool

	pending chan *task
	wg      sync.WaitGroup

	// runCtx cancels in-flight measurements when a drain deadline
	// expires; until then workers run under it unbounded.
	runCtx    context.Context
	cancelRun context.CancelFunc
}

// newQueue starts workers goroutines draining a depth-bounded intake;
// each job runs under its own jobTimeout deadline.
func newQueue(store *jobs.Store, workers, depth int, jobTimeout time.Duration) *queue {
	if workers < 1 {
		workers = 2
	}
	if depth < 1 {
		depth = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &queue{
		store:      store,
		flight:     &jobs.Flight{},
		jobTimeout: jobTimeout,
		retain:     maxFinishedTasks,
		tasks:      make(map[string]*task),
		pending:    make(chan *task, depth),
		runCtx:     ctx,
		cancelRun:  cancel,
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
	configFP := j.Fingerprint()
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
			ConfigFingerprint: configFP,
			State:             StateQueued,
		},
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
// per-job deadline, recording the outcome on the task status.
func (q *queue) run(t *task) {
	q.mu.Lock()
	t.status.State = StateRunning
	q.mu.Unlock()

	start := time.Now()
	cached, err := q.execute(t)
	t.release()

	q.mu.Lock()
	t.status.Cached = cached
	t.status.WallSeconds = time.Since(start).Seconds()
	if err != nil {
		t.status.State = StateFailed
		t.status.Error = err.Error()
	} else {
		t.status.State = StateDone
	}
	t.job, t.release = nil, nil
	q.finished = append(q.finished, t.status.ID)
	if len(q.finished) > q.retain {
		q.forgetOldest()
	}
	q.mu.Unlock()
	close(t.done)
	if err != nil {
		obsJobsFailed.Inc()
	} else {
		obsJobsCompleted.Inc()
	}
}

// execute runs the task's job once under the per-job deadline. A
// panicking job fails with an error naming the panic value instead of
// ending the daemon; the runner caches nothing for it, and the worker
// goes on draining the queue.
func (q *queue) execute(t *task) (cached bool, err error) {
	// No OutDir: the artifact the store keeps, files inside, is the one
	// copy of a job's output, and GET /v1/jobs/{id}/artifact serves it.
	runner := &jobs.Runner{
		Cache:  q.store,
		Flight: q.flight,
		Env:    jobs.Env{GraphFingerprint: t.status.GraphFingerprint},
		Stdout: io.Discard,
	}
	ctx, cancel := context.WithTimeout(q.runCtx, q.jobTimeout)
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			cached, err = false, fmt.Errorf("job %s panicked: %v", t.job.Name(), r)
		}
	}()
	return runner.Run(ctx, t.job)
}

// forgetOldest drops the oldest finished task from the table. Once
// order holds twice as many IDs as the table, one pass drops the
// forgotten ones, so forgetting costs amortized O(1) per task. Callers
// hold q.mu.
func (q *queue) forgetOldest() {
	delete(q.tasks, q.finished[0])
	q.finished = q.finished[1:]
	obsJobsExpired.Inc()
	if len(q.order) < 2*len(q.tasks) {
		return
	}
	kept := q.order[:0]
	for _, id := range q.order {
		if _, ok := q.tasks[id]; ok {
			kept = append(kept, id)
		}
	}
	clear(q.order[len(kept):])
	q.order = kept
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
// status. It backs the poll endpoint's optional wait parameter. The
// status comes from the task it holds, so a task forgotten after it
// finished still answers.
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
	q.mu.Lock()
	defer q.mu.Unlock()
	return t.status, nil
}

// list returns every retained task's status in enqueue order.
func (q *queue) list() []JobStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]JobStatus, 0, len(q.tasks))
	for _, id := range q.order {
		if t, ok := q.tasks[id]; ok {
			out = append(out, t.status)
		}
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
