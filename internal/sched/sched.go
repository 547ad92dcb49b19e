// Package sched defines the runtime concurrency-control interface shared
// by every protocol implementation (MT(k), MT(k⁺), MT(k1,k2), DMT(k) and
// the baselines 2PL, TO, OCC, SGT and timestamp intervals), plus the
// MT-family adapters themselves.
//
// All runtime schedulers manage data as well as ordering: Read returns
// committed values, Write buffers the new value, and Commit validates any
// deferred work and atomically publishes the write set (the paper's
// Section VI-C-2 rollback scheme — no dirty data is ever visible, so an
// abort never cascades).
package sched

import (
	"errors"
	"fmt"
	"time"
)

// ErrAbort is returned by Read, Write or Commit when the transaction must
// abort and may be retried by the caller.
var ErrAbort = errors.New("sched: transaction must abort")

// AbortError wraps ErrAbort with diagnostic context.
type AbortError struct {
	Txn     int
	Blocker int
	Reason  string
	// Settled reports that the blocker had no live incarnation when the
	// reject was decided: it has committed (or aborted), so no wait
	// changes its vector, and with the starvation fix (Section III-D-4)
	// the reseed already orders the retry after it. Only the MT-family
	// protocol rejects set it; every other abort leaves it false.
	Settled bool
}

// Error implements error.
func (e *AbortError) Error() string {
	return fmt.Sprintf("sched: txn %d aborted (%s, blocker %d)", e.Txn, e.Reason, e.Blocker)
}

// Unwrap makes errors.Is(err, ErrAbort) true.
func (e *AbortError) Unwrap() error { return ErrAbort }

// Abort builds an *AbortError.
func Abort(txn, blocker int, reason string) error {
	return &AbortError{Txn: txn, Blocker: blocker, Reason: reason}
}

// reject builds the *AbortError of an MT-family protocol reject of txn
// by blocker, settled when live reports no live incarnation of blocker.
// The uncommitted-writer guards use Abort: their blocker is live by
// construction.
func reject(txn, blocker int, reason string, live func(int) bool) error {
	return &AbortError{Txn: txn, Blocker: blocker, Reason: reason, Settled: !live(blocker)}
}

// ErrUnavailable is returned by distributed schedulers when a site the
// operation needs is crashed, partitioned or lost the message (degraded
// mode). It is NOT an ErrAbort: the transaction did not lose a conflict
// and no ordering was established against it; the operation simply could
// not be performed right now. Callers retry it under a separate budget
// with backoff instead of treating it as a protocol abort.
var ErrUnavailable = errors.New("sched: site unavailable")

// UnavailableError wraps ErrUnavailable with the failing site.
type UnavailableError struct {
	Txn    int
	Site   int // unreachable site (-1 if unknown)
	Reason string
}

// Error implements error.
func (e *UnavailableError) Error() string {
	return fmt.Sprintf("sched: txn %d unavailable (%s, site %d)", e.Txn, e.Reason, e.Site)
}

// Unwrap makes errors.Is(err, ErrUnavailable) true.
func (e *UnavailableError) Unwrap() error { return ErrUnavailable }

// Unavailable builds an *UnavailableError.
func Unavailable(txn, site int, reason string) error {
	return &UnavailableError{Txn: txn, Site: site, Reason: reason}
}

// ErrDeadlineExceeded is returned by the transaction runtime when a
// per-transaction deadline expires before the transaction commits or
// exhausts its retry budgets. Like ErrUnavailable it is NOT an ErrAbort:
// no conflict was lost — the caller simply ran out of time, typically
// while blocked in a backoff sleep, a latch wait or an unavailability
// retry, all of which the deadline cancels.
var ErrDeadlineExceeded = errors.New("sched: transaction deadline exceeded")

// DeadlineError wraps ErrDeadlineExceeded with diagnostic context.
type DeadlineError struct {
	Txn     int
	Elapsed time.Duration // wall time from first attempt to expiry
	Stage   string        // where the deadline fired ("backoff", "attempt", ...)
}

// Error implements error.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("sched: txn %d deadline exceeded after %v (%s)", e.Txn, e.Elapsed, e.Stage)
}

// Unwrap makes errors.Is(err, ErrDeadlineExceeded) true.
func (e *DeadlineError) Unwrap() error { return ErrDeadlineExceeded }

// DeadlineExceeded builds a *DeadlineError.
func DeadlineExceeded(txn int, elapsed time.Duration, stage string) error {
	return &DeadlineError{Txn: txn, Elapsed: elapsed, Stage: stage}
}

// Scheduler is a runtime concurrency controller bound to a store.
// Transaction ids must be unique among concurrently live transactions; a
// retried transaction reuses its id (so protocols like MT(k) with the
// starvation fix can privilege the restarted incarnation).
//
// Implementations may block inside Read/Write (lock-based protocols) or
// fail fast with an error wrapping ErrAbort (timestamp-based protocols).
type Scheduler interface {
	// Name identifies the protocol in reports, e.g. "MT(3)".
	Name() string
	// Begin opens (or reopens, after an abort) the transaction.
	Begin(txn int)
	// Read returns the committed value of item visible to txn.
	Read(txn int, item string) (int64, error)
	// Write schedules the value to be written by txn at commit.
	Write(txn int, item string, v int64) error
	// Commit validates and atomically publishes txn's writes.
	Commit(txn int) error
	// Abort discards txn (idempotent; safe after a failed Commit).
	Abort(txn int)
}
