// Package resilience is the job-execution layer that keeps long
// measurement runs alive through the failure classes the distributed
// formulations of the paper's properties assume (node crashes, lost
// work, deadline storms): error classification, bounded retry with
// seeded-jitter exponential backoff, and atomic file writes. The
// experiment runner (cmd/experiments) wraps every job in it.
//
// The contract, in order of importance:
//
//   - Determinism survives failure. A retried job reruns from its
//     start and produces bit-identical results to an uninterrupted one:
//     retry jitter is drawn from a seeded stream so schedules are
//     reproducible, and nothing in this package reorders or reseeds the
//     measurement itself. Finished work is recorded per job, by the
//     artifact cache (internal/jobs); nothing below the job is saved.
//   - Failures are classified, not guessed at. Classify distinguishes
//     ClassCanceled (caller intent — never retried), ClassDeadline
//     (budget exhausted — not retried, since a deterministic job will
//     exhaust it again), ClassTransient (worth retrying: marked
//     transient, or a recovered panic, which in this system comes from
//     injected faults and flaky state), and ClassFatal (everything
//     else — retrying a deterministic bug wastes the budget).
//   - Crash-safe artifacts. WriteFileAtomic (temp file + fsync +
//     rename) backs every cache entry, output file and metrics
//     artifact write, so a killed run never leaves truncated JSON
//     behind.
//
// Cost model: Classify is a handful of errors.Is/As walks; a retry
// sleeps under the caller's context; WriteFileAtomic costs one
// temp-file write, fsync and rename. Nothing here runs on a
// measurement hot path.
package resilience

import (
	"context"
	"errors"
	"fmt"
)

// Class is the failure class of a job error, driving the retry
// decisions of the runner.
type Class int

const (
	// ClassOK classifies a nil error.
	ClassOK Class = iota
	// ClassTransient failures (marked errors, recovered panics) may
	// succeed on retry.
	ClassTransient
	// ClassDeadline failures exhausted a time budget
	// (context.DeadlineExceeded). Retrying a deterministic job against
	// the same budget just loses again, so they are not retried; a rerun
	// with a larger budget starts the job over.
	ClassDeadline
	// ClassCanceled failures are caller intent (context.Canceled) and
	// are never retried.
	ClassCanceled
	// ClassFatal failures are deterministic errors retry cannot fix.
	ClassFatal
)

// String names the class for failure summaries and metrics.
func (c Class) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassTransient:
		return "transient"
	case ClassDeadline:
		return "deadline"
	case ClassCanceled:
		return "canceled"
	case ClassFatal:
		return "fatal"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// transienter is the marker interface Classify honors: any error in the
// chain may declare itself transient (or explicitly non-transient).
type transienter interface {
	Transient() bool
}

// Classify maps an error to its failure class. Context errors win over
// markers (a canceled run is canceled no matter what it wrapped), then
// the innermost Transient() marker or PanicError decides, and anything
// unclaimed is fatal.
func Classify(err error) Class {
	if err == nil {
		return ClassOK
	}
	if errors.Is(err, context.Canceled) {
		return ClassCanceled
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ClassDeadline
	}
	var t transienter
	if errors.As(err, &t) && t.Transient() {
		return ClassTransient
	}
	return ClassFatal
}

// marked wraps an error that MarkTransient declared worth retrying.
type marked struct {
	err error
}

// Error returns the wrapped error's message unchanged.
func (m *marked) Error() string { return m.err.Error() }

// Unwrap exposes the wrapped error to errors.Is/As chains.
func (m *marked) Unwrap() error { return m.err }

// Transient reports the marked verdict; Classify consults it first.
func (m *marked) Transient() bool { return true }

// MarkTransient marks err as worth retrying. A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err}
}

// PanicError is a recovered panic converted into an error: the runner's
// panic recovery produces one so the failure summary can report the
// recovered stack trace, not only the panic value. Panics classify as
// transient — in this system they come from injected faults and flaky
// state, and the retry budget bounds the damage when they do not.
type PanicError struct {
	// Value is the value the goroutine panicked with.
	Value any
	// Stack is the panicking goroutine's stack trace (debug.Stack),
	// captured inside the recovering deferred call.
	Stack []byte
}

// Error reports the panic value; the stack is kept structured so
// reporting layers can choose where to render it.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Transient marks recovered panics retryable.
func (e *PanicError) Transient() bool { return true }

// AsPanic extracts a PanicError from err's chain.
func AsPanic(err error) (*PanicError, bool) {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}
