package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/trustnet/trustnet/internal/obs"
)

// Observability instruments for the retry layer, resolved once at init.
var (
	obsAttempts = obs.Default().Counter("resilience.retry.attempts")
	obsRetries  = obs.Default().Counter("resilience.retry.retries")
	obsGiveups  = obs.Default().Counter("resilience.retry.giveups")
)

// Policy is a bounded retry schedule with seeded-jitter exponential
// backoff. The zero value retries nothing (one attempt, no backoff).
type Policy struct {
	// MaxAttempts is the total attempt budget including the first;
	// values < 1 mean one attempt.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 means no cap.
	MaxDelay time.Duration
	// Jitter is the fraction of each delay randomized: the slept delay
	// is d·(1 + Jitter·u) with u uniform in [-1, 1] from the seeded
	// stream. Values outside [0, 1] are clamped. 0 disables jitter.
	Jitter float64
	// Seed drives the jitter stream, so a retry schedule is a pure
	// function of (Policy, failure sequence).
	Seed int64
	// AttemptTimeout, when > 0, bounds every attempt with its own
	// deadline derived from the run context: each retry starts with a
	// fresh budget instead of inheriting whatever the failed attempt
	// left behind. A timed-out attempt is still terminal: ClassDeadline
	// is not retried, since a deterministic job that exhausted one
	// budget will exhaust the next.
	AttemptTimeout time.Duration
	// OnRetry, when non-nil, observes each scheduled retry before its
	// backoff sleep: the attempt that failed, its error and class, and
	// the backoff about to be slept.
	OnRetry func(attempt int, err error, class Class, backoff time.Duration)
	// Sleep replaces the backoff sleep, for tests. nil sleeps under the
	// run context.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Outcome summarizes a Run for metrics and failure reports.
type Outcome struct {
	// Attempts is the number of attempts made (>= 1).
	Attempts int
	// Class classifies the final error (ClassOK on success).
	Class Class
}

// backoff returns the jittered delay before attempt n+1 (n >= 1), drawn
// deterministically from the policy's seeded stream.
func (p Policy) backoff(rng *rand.Rand, n int) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= 2
		if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	jitter := p.Jitter
	if jitter < 0 {
		jitter = 0
	}
	if jitter > 1 {
		jitter = 1
	}
	if jitter > 0 {
		d *= 1 + jitter*(2*rng.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Run invokes fn until it succeeds, fails un-retryably, or exhausts the
// attempt budget. fn receives the run context and the 1-based attempt
// number; with AttemptTimeout set the context carries a fresh per-attempt
// deadline, otherwise per-attempt budgets are fn's own responsibility so
// every retry starts fresh. Backoff sleeps respect ctx: cancellation
// during a sleep ends the run with the previous attempt's error wrapped
// around ctx.Err()'s class.
func (p Policy) Run(ctx context.Context, fn func(ctx context.Context, attempt int) error) (Outcome, error) {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	var rng *rand.Rand // lazily built: most runs never back off
	out := Outcome{}
	var err error
	for n := 1; ; n++ {
		out.Attempts = n
		obsAttempts.Inc()
		if p.AttemptTimeout > 0 {
			actx, cancel := context.WithTimeout(ctx, p.AttemptTimeout)
			err = fn(actx, n)
			cancel()
		} else {
			err = fn(ctx, n)
		}
		out.Class = Classify(err)
		if err == nil || n >= attempts || out.Class != ClassTransient {
			break
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(p.Seed))
		}
		d := p.backoff(rng, n)
		if p.OnRetry != nil {
			p.OnRetry(n, err, out.Class, d)
		}
		obsRetries.Inc()
		if serr := sleep(ctx, d); serr != nil {
			err = fmt.Errorf("retry backoff after %w: %w", err, serr)
			out.Class = Classify(serr)
			break
		}
	}
	if err != nil && out.Class == ClassTransient {
		obsGiveups.Inc()
	}
	return out, err
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
