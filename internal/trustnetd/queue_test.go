package trustnetd

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/obs"
)

// TestQueueSurvivesPanickingJob enqueues a job whose run panics and an
// ordinary job behind it on a one-worker queue. The first must end
// failed with the panic value in its error, release its graph once,
// count as failed and cache nothing; the worker must then run the
// second to done.
func TestQueueSurvivesPanickingJob(t *testing.T) {
	store := jobs.NewStore(t.TempDir())
	q := newQueue(store, 1, 4, time.Minute)
	t.Cleanup(func() { q.drain(10 * time.Second) })
	failed := obs.Default().Counter("trustnetd.jobs.failed")
	before := failed.Value()

	boom := jobs.New("boom", nil, func(context.Context, jobs.Env) (*jobs.Artifact, error) {
		panic("measurement bug")
	})
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
