package resilience

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// fakeSleep records requested backoffs without sleeping.
func fakeSleep(slept *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return ctx.Err()
	}
}

func TestRetryTransientUntilSuccess(t *testing.T) {
	var slept []time.Duration
	pol := Policy{
		MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, Seed: 7,
		Sleep: fakeSleep(&slept),
	}
	calls := 0
	out, err := pol.Run(context.Background(), func(ctx context.Context, attempt int) error {
		calls++
		if attempt != calls {
			t.Fatalf("attempt = %d on call %d", attempt, calls)
		}
		if calls < 3 {
			return MarkTransient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Attempts != 3 || out.Class != ClassOK {
		t.Fatalf("outcome = %+v, want 3 attempts, ok", out)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	// Second backoff doubles the first (modulo jitter, disabled here).
	if slept[0] != 100*time.Millisecond || slept[1] != 200*time.Millisecond {
		t.Errorf("backoffs = %v, want exponential from 100ms", slept)
	}
}

func TestRetryFatalNotRetried(t *testing.T) {
	pol := Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, Sleep: fakeSleep(new([]time.Duration))}
	calls := 0
	out, err := pol.Run(context.Background(), func(context.Context, int) error {
		calls++
		return errors.New("deterministic bug")
	})
	if err == nil || calls != 1 || out.Attempts != 1 || out.Class != ClassFatal {
		t.Fatalf("fatal error retried: calls=%d outcome=%+v err=%v", calls, out, err)
	}
}

func TestRetryCanceledNotRetried(t *testing.T) {
	pol := Policy{MaxAttempts: 4, Sleep: fakeSleep(new([]time.Duration))}
	calls := 0
	out, err := pol.Run(context.Background(), func(context.Context, int) error {
		calls++
		return context.Canceled
	})
	if calls != 1 || out.Class != ClassCanceled || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled retried: calls=%d outcome=%+v err=%v", calls, out, err)
	}
}

// A deterministic job that exhausted its budget will exhaust the next
// one: deadline failures are not retried.
func TestRetryDeadlineNotRetried(t *testing.T) {
	var slept []time.Duration
	pol := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Sleep: fakeSleep(&slept)}
	calls := 0
	fn := func(context.Context, int) error { calls++; return context.DeadlineExceeded }
	if out, _ := pol.Run(context.Background(), fn); out.Attempts != 1 || calls != 1 || out.Class != ClassDeadline {
		t.Fatalf("deadline retried: %+v calls=%d", out, calls)
	}
	if len(slept) != 0 {
		t.Fatalf("slept %v before giving up on a deadline", slept)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	var slept []time.Duration
	pol := Policy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, Seed: 3, Sleep: fakeSleep(&slept)}
	retries := 0
	pol.OnRetry = func(attempt int, err error, class Class, backoff time.Duration) {
		retries++
		if class != ClassTransient {
			t.Errorf("OnRetry class = %v", class)
		}
	}
	out, err := pol.Run(context.Background(), func(context.Context, int) error {
		return MarkTransient(errors.New("always flaky"))
	})
	if err == nil || out.Attempts != 3 || out.Class != ClassTransient {
		t.Fatalf("outcome = %+v err=%v, want exhausted transient", out, err)
	}
	if retries != 2 || len(slept) != 2 {
		t.Fatalf("retries=%d slept=%d, want 2 and 2", retries, len(slept))
	}
}

// The jitter stream is seeded: identical policies draw identical
// backoff schedules, different seeds draw different ones.
func TestRetryJitterSeeded(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		var slept []time.Duration
		pol := Policy{
			MaxAttempts: 6, BaseDelay: time.Second, MaxDelay: 30 * time.Second,
			Jitter: 0.5, Seed: seed, Sleep: fakeSleep(&slept),
		}
		pol.Run(context.Background(), func(context.Context, int) error {
			return MarkTransient(errors.New("flaky"))
		})
		return slept
	}
	a, b := schedule(42), schedule(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed drew different schedules:\n%v\n%v", a, b)
	}
	if c := schedule(43); reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds drew identical schedules: %v", a)
	}
	for _, d := range a {
		if d < 500*time.Millisecond || d > 45*time.Second {
			t.Errorf("backoff %v outside jittered envelope", d)
		}
	}
}

func TestRetryBackoffCapped(t *testing.T) {
	var slept []time.Duration
	pol := Policy{
		MaxAttempts: 8, BaseDelay: time.Second, MaxDelay: 4 * time.Second,
		Sleep: fakeSleep(&slept),
	}
	pol.Run(context.Background(), func(context.Context, int) error {
		return MarkTransient(errors.New("flaky"))
	})
	for i, d := range slept {
		if d > 4*time.Second {
			t.Errorf("backoff %d = %v exceeds cap", i, d)
		}
	}
	if last := slept[len(slept)-1]; last != 4*time.Second {
		t.Errorf("final backoff = %v, want capped 4s", last)
	}
}

// Cancellation during a backoff sleep ends the run with a canceled
// class, not another attempt.
func TestRetryCanceledDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pol := Policy{
		MaxAttempts: 5, BaseDelay: time.Minute,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel()
			return ctx.Err()
		},
	}
	calls := 0
	out, err := pol.Run(ctx, func(context.Context, int) error {
		calls++
		return MarkTransient(errors.New("flaky"))
	})
	if calls != 1 || out.Class != ClassCanceled || !errors.Is(err, context.Canceled) {
		t.Fatalf("calls=%d outcome=%+v err=%v, want 1 attempt then canceled", calls, out, err)
	}
}
