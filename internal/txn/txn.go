// Package txn is the goroutine transaction runtime: it executes
// transaction specifications against any sched.Scheduler, retrying
// aborted transactions with (optionally) exponential backoff. A retried
// transaction keeps its id, so protocols like MT(k) with the starvation
// fix can privilege the restarted incarnation.
package txn

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/explore/hook"
	"repro/internal/oplog"
	"repro/internal/sched"
	"repro/internal/storage"
)

// Op is one step of a transaction: read or write of a single item.
type Op struct {
	Kind oplog.Kind
	Item string
}

// R and W build ops.
func R(item string) Op { return Op{Kind: oplog.Read, Item: item} }

// W builds a write op.
func W(item string) Op { return Op{Kind: oplog.Write, Item: item} }

// Spec describes a transaction to execute.
type Spec struct {
	// ID is the transaction id; unique among concurrently running
	// transactions and stable across retries.
	ID int
	// Ops run in order.
	Ops []Op
	// Value computes the value written to item given the reads observed
	// so far. Nil writes the transaction id (enough for conflict-shape
	// experiments).
	Value func(item string, reads map[string]int64) int64
}

// Result reports one transaction's fate.
type Result struct {
	ID        int
	Committed bool
	// Attempts counts executions including the successful one.
	Attempts int
	// PartialResumes counts retries that resumed mid-transaction via the
	// Section VI-C-1 partial rollback instead of restarting from scratch.
	PartialResumes int
	// OpsExecuted counts operations actually issued across all attempts
	// (the wasted-work metric of the rollback experiments).
	OpsExecuted int
	// Unavailable counts attempts that ended in sched.ErrUnavailable
	// (degraded-mode retries, not protocol aborts).
	Unavailable int
	// Timeouts counts attempts abandoned by the per-attempt timeout.
	Timeouts int
	// Shed reports that admission control refused the transaction with
	// admit.ErrOverloaded before it consumed any scheduler resources
	// (Attempts is 0).
	Shed bool
	// DeadlineExceeded reports that the per-transaction deadline (or the
	// caller's context) expired before the transaction committed or
	// exhausted its retry budgets.
	DeadlineExceeded bool
	// Durable reports whether the commit reached stable storage before
	// it was acknowledged. Equal to Committed when the runtime has no
	// Durable waiter; false when the write-ahead log failed after the
	// scheduler committed (the commit happened in memory but would not
	// survive a crash).
	Durable bool
	// Reads holds the read values of the committed attempt (nil if the
	// transaction never committed).
	Reads map[string]int64
	// Latency is the wall time from first attempt to final outcome.
	Latency time.Duration
}

// PartialRestarter is implemented by schedulers supporting the Section
// VI-C-1 partial rollback: after a rejected operation, the scheduler
// reseeds the transaction and re-validates its earlier reads, so the
// runtime can resume mid-transaction.
type PartialRestarter interface {
	TryPartialRestart(txn int, readItems []string) bool
}

// Runtime executes Specs on a Scheduler.
type Runtime struct {
	Sched sched.Scheduler
	// MaxAttempts bounds conflict-abort retries (0 = retry forever).
	MaxAttempts int
	// Backoff is the base sleep after an abort; attempt n sleeps
	// Backoff * 2^min(n,6) with full jitter. Zero disables sleeping.
	// A conflict abort whose blocker had already finished
	// (sched.AbortError.Settled) retries at once instead, unless the
	// admission controller scaled the backoff: its aging and storm
	// policies still apply to such retries.
	Backoff time.Duration
	// Think sleeps between consecutive operations of a transaction and
	// before its commit, forcing transactions to overlap in time (the
	// regime where the protocols' ordering decisions actually differ).
	// The pre-commit sleep models the commit request as its own message
	// round: a site can fail between a transaction's last operation and
	// its commit, which is the window degraded-mode commits address.
	Think time.Duration
	// PartialRollback enables the Section VI-C-1 scheme when both the
	// scheduler implements PartialRestarter and Store is set (item
	// versions decide whether kept read values are still current).
	PartialRollback bool
	// Store is consulted for per-item versions under PartialRollback.
	Store *storage.Store
	// Seed perturbs the per-transaction backoff jitter, drawn from a
	// math/rand/v2 PCG held in the transaction's own stack frame (no
	// per-transaction heap state). Zero seeds it from the spec ID alone;
	// any other value is mixed with the spec ID so chaos experiments can
	// vary jitter across runs deterministically via config. The draws
	// are deterministic per (Seed, spec ID), but they are not the values
	// the earlier math/rand source produced for the same pair.
	Seed int64
	// AttemptTimeout bounds one attempt's wall time (0 = unbounded). A
	// timed-out attempt is abandoned, the incarnation aborted, and the
	// transaction retried under the unavailability budget — the last
	// line of defense against a hung site.
	AttemptTimeout time.Duration
	// UnavailableBudget bounds retries caused by sched.ErrUnavailable or
	// attempt timeouts (0 = retry forever). Unavailability retries have
	// their own budget and backoff: they signal a down site, not a lost
	// conflict, so they should not consume the conflict-retry budget.
	UnavailableBudget int
	// UnavailableBackoff is the base sleep for unavailability retries
	// (exponential with full jitter); falls back to Backoff when zero.
	// Typically set much higher than Backoff: the site needs time to
	// recover, not just the conflict window to pass.
	UnavailableBackoff time.Duration
	// Durable, when set, is waited on after every successful commit:
	// the commit acks only once its redo record reaches stable storage
	// (wal.Writer satisfies this). A Wait error marks the result
	// non-durable but still committed — the in-memory state has it,
	// the disk does not.
	Durable interface{ Wait(txn int) error }
	// Admit, when set, is the overload controller: every transaction's
	// first attempt passes its admission gate (a refused transaction
	// returns with Shed set and no scheduler work done), every conflict
	// abort is reported to it, and the scale it returns multiplies the
	// next backoff sleep (storm damping, priority aging).
	Admit *admit.Controller
	// ShedPause is slept (cancellably) before a shed transaction
	// returns, modeling a rejected client's retry-after pause; 0 = none.
	// Without it a closed-loop worker pool turns shedding into a busy
	// loop that steals CPU from the admitted work it protects. For the
	// same reason the pause always parks on a timer, even below
	// spinSleepMax: a retry-after pause needs no precision, and under
	// overload dozens of shed clients yield-spinning at once would take
	// the CPU back from the admitted work.
	ShedPause time.Duration
	// Deadline bounds one transaction end to end (0 = none): it covers
	// admission waits, every attempt, backoff sleeps and think time.
	// Expiry cancels in-flight sleeps, abandons blocked attempts and
	// returns a result with DeadlineExceeded set.
	Deadline time.Duration
	// Stop, when non-nil, is a shutdown signal: once it closes, every
	// in-flight backoff or think sleep is cancelled and transactions
	// return promptly with DeadlineExceeded (shutdown is a deadline of
	// "now").
	Stop <-chan struct{}
}

// errAttemptTimeout marks an attempt abandoned by AttemptTimeout. It
// wraps sched.ErrUnavailable: a hung attempt is indistinguishable from
// an unreachable site and is retried under the same budget.
var errAttemptTimeout = fmt.Errorf("txn: attempt timed out: %w", sched.ErrUnavailable)

// jitterSeed mixes the runtime-level seed into the per-spec jitter seed.
// With Seed == 0 the legacy spec.ID-only seeding is preserved; otherwise
// two runs of the same spec under different runtime seeds draw different
// jitter, deterministically (SplitMix64 finalizer).
func jitterSeed(runtimeSeed int64, id int) int64 {
	if runtimeSeed == 0 {
		return int64(id)
	}
	z := uint64(runtimeSeed) ^ uint64(id)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Exec runs one transaction to commit or retry exhaustion. Conflict
// aborts (sched.ErrAbort) and unavailability (sched.ErrUnavailable,
// attempt timeouts) are retried under separate budgets with separate
// exponential-backoff-plus-jitter schedules.
func (r *Runtime) Exec(spec Spec) Result {
	return r.ExecCtx(context.Background(), spec)
}

// ExecCtx is Exec under a context: ctx expiry (or Runtime.Deadline,
// whichever fires first, or a closed Stop channel) cancels admission
// waits, backoff and think sleeps and abandons blocked attempts,
// returning a result with DeadlineExceeded set. With Admit configured,
// the transaction first passes the overload controller's admission
// gate; a refusal returns immediately with Shed set.
func (r *Runtime) ExecCtx(ctx context.Context, spec Spec) Result {
	start := time.Now()
	res := Result{ID: spec.ID}
	if r.Stop != nil {
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		stop := r.Stop
		go func() {
			select {
			case <-stop:
				cancel()
			case <-sctx.Done():
			}
		}()
		ctx = sctx
	}
	var due time.Time // the transaction's deadline; zero = none
	if r.Deadline > 0 {
		due = start.Add(r.Deadline)
	}
	if r.Admit != nil {
		gate := &lazyDeadline{parent: ctx, due: due}
		defer gate.release()
		if err := r.Admit.Admit(gate, spec.ID); err != nil {
			if errors.Is(err, admit.ErrOverloaded) {
				res.Shed = true
				pause := r.ShedPause
				if !due.IsZero() {
					pause = min(pause, time.Until(due))
				}
				_ = parkCtx(ctx, pause)
			} else {
				res.DeadlineExceeded = true
			}
			res.Latency = time.Since(start)
			return res
		}
		ctx = gate.context()
		// The controller is fed SERVICE latency (admission grant to
		// outcome), not arrival latency: queue wait is the limiter's own
		// artifact, and feeding it back would spiral the limit down under
		// load — the deeper the queue, the "slower" the system looks, the
		// harder it throttles. Result.Latency stays arrival-based.
		admitted := time.Now()
		defer func() {
			r.Admit.Done(spec.ID, res.Committed, res.Attempts, time.Since(admitted))
		}()
	} else if !due.IsZero() {
		dctx, cancel := context.WithDeadline(ctx, due)
		defer cancel()
		ctx = dctx
	}
	// The jitter generator is two words in this frame: it never escapes,
	// so a transaction that commits first time allocates nothing for it.
	rng := rand.NewPCG(uint64(jitterSeed(r.Seed, spec.ID)), jitterStream)
	resumeFrom := 0
	var reads map[string]int64
	// readVers holds the item versions behind kept reads; only
	// PartialRollback consults it, so it exists only with a Store.
	var readVers map[string]int64
	conflicts := 0 // attempts ended by ErrAbort, counted against MaxAttempts
	unavail := 0   // attempts ended by ErrUnavailable, separate budget
	// expired finalizes a deadline exit: the live incarnation (if any)
	// is aborted so the scheduler does not hold its vector forever.
	expired := func() Result {
		r.Sched.Abort(spec.ID)
		res.DeadlineExceeded = true
		res.Latency = time.Since(start)
		return res
	}
	for {
		// Retries (never the first attempt) pass the aging crisis gate:
		// while an elder is fighting for its commit, only the oldest live
		// transaction may launch, so its commit is certain rather than a
		// rematch it can keep losing.
		if r.Admit != nil && res.Attempts > 0 {
			if err := r.Admit.RetryGate(ctx, spec.ID); err != nil {
				return expired()
			}
		}
		if resumeFrom == 0 {
			reads = make(map[string]int64)
			if r.Store != nil {
				readVers = make(map[string]int64)
			}
		}
		out := r.attemptWithTimeout(ctx, spec, resumeFrom, reads, readVers)
		res.OpsExecuted += out.ops
		res.Attempts++
		if out.err == nil {
			res.Committed = true
			res.Durable = true
			if r.Durable != nil {
				if werr := r.Durable.Wait(spec.ID); werr != nil {
					res.Durable = false
				}
			}
			res.Reads = out.reads
			res.Latency = time.Since(start)
			return res
		}
		switch {
		case errors.Is(out.err, sched.ErrDeadlineExceeded):
			return expired()
		case errors.Is(out.err, sched.ErrUnavailable):
			// Degraded mode: no conflict was lost and no ordering was
			// established against us — abort the incarnation and wait for
			// the site to come back.
			if errors.Is(out.err, errAttemptTimeout) {
				res.Timeouts++
			} else {
				res.Unavailable++
			}
			unavail++
			resumeFrom = 0
			r.Sched.Abort(spec.ID)
			if r.UnavailableBudget > 0 && unavail >= r.UnavailableBudget {
				res.Latency = time.Since(start)
				return res
			}
			base := r.UnavailableBackoff
			if base == 0 {
				base = r.Backoff
			}
			if err := sleepBackoff(ctx, rng, unavail, base, 1); err != nil {
				return expired()
			}
		case errors.Is(out.err, sched.ErrAbort):
			conflicts++
			resumeFrom = 0
			if r.PartialRollback && r.Store != nil && out.failedAt > 0 {
				if pr, ok := r.Sched.(PartialRestarter); ok && r.tryResume(spec, out.failedAt, reads, readVers, pr) {
					resumeFrom = out.failedAt
					res.PartialResumes++
				}
			}
			if resumeFrom == 0 {
				r.Sched.Abort(spec.ID)
			}
			if r.MaxAttempts > 0 && conflicts >= r.MaxAttempts {
				res.Latency = time.Since(start)
				return res
			}
			// A type assertion, not errors.As: schedulers return the
			// *AbortError bare, and errors.As would move the target to
			// the heap on every conflict.
			ae, _ := out.err.(*sched.AbortError)
			scale := 1.0
			if r.Admit != nil {
				blocker := 0
				if ae != nil {
					blocker = ae.Blocker
				}
				scale = r.Admit.OnAbort(spec.ID, blocker)
			}
			// Explore instrumentation: the backoff scale the admission
			// controller chose (scaled to ppm so zero stays exactly zero —
			// the express-lane livelock oracle checks for it), then the
			// restart itself as a preemption point.
			hook.Observe("txn.backoff", "", int64(spec.ID), int64(scale*1e6))
			hook.Yield("txn.restart", "", int64(spec.ID), int64(conflicts))
			// The jitter is drawn even when it is not slept, so the n-th
			// conflict's draw stays a function of (Seed, id, n) alone.
			d := backoffDraw(rng, conflicts, r.Backoff, scale)
			if scale == 1 && ae != nil && ae.Settled {
				// The blocker has finished: no sleep changes its vector,
				// and the starvation-fix reseed already orders the retry
				// after it. An admission scale other than 1 is a policy
				// (aging, storm damping) and is still slept.
				d = 0
			}
			if err := sleepCtx(ctx, d); err != nil {
				return expired()
			}
		default:
			panic("txn: scheduler returned a non-abort error: " + out.err.Error())
		}
	}
}

// jitterStream is the fixed second PCG seed word; the first is the
// per-transaction jitterSeed.
const jitterStream = 0x6A09E667F3BCC909

// lazyDeadline is the transaction's deadline context as the admission
// gate sees it: built on first use. The gate only reaches for it when it
// must wait, so a transaction admitted or shed on the spot arms no
// deadline timer before admission. Under overload most arrivals are
// shed, and the timer was most of a shed's cost.
type lazyDeadline struct {
	parent context.Context
	due    time.Time // zero = no deadline
	ctx    context.Context
	cancel context.CancelFunc // set once a deadline context exists
}

func (l *lazyDeadline) context() context.Context {
	if l.ctx == nil {
		l.ctx = l.parent
		if !l.due.IsZero() {
			l.ctx, l.cancel = context.WithDeadline(l.parent, l.due)
		}
	}
	return l.ctx
}

// release cancels the deadline context, if one was built.
func (l *lazyDeadline) release() {
	if l.cancel != nil {
		l.cancel()
	}
}

// Done and Err make lazyDeadline an admit.Waiter.
func (l *lazyDeadline) Done() <-chan struct{} { return l.context().Done() }
func (l *lazyDeadline) Err() error            { return l.context().Err() }

// sleepBackoff sleeps Backoff-style full jitter: uniform in
// [0, scale·base·2^min(n,6)]. scale < 1 shortens the sleep (0 skips it
// entirely — an aged transaction retrying immediately), scale > 1
// widens it (storm damping, young-yields-to-old). The sleep is
// cancellable: ctx expiry interrupts it and returns the ctx error.
func sleepBackoff(ctx context.Context, rng *rand.PCG, n int, base time.Duration, scale float64) error {
	return sleepCtx(ctx, backoffDraw(rng, n, base, scale))
}

// backoffDraw is sleepBackoff's jitter draw; 0 when base or scale
// disables the sleep.
func backoffDraw(rng *rand.PCG, n int, base time.Duration, scale float64) time.Duration {
	if base <= 0 || scale < 0 {
		return 0
	}
	max := int64(float64(base) * scale)
	if max <= 0 {
		return 0
	}
	max <<= min(n, 6)
	return time.Duration(uniform(rng, uint64(max)+1))
}

// uniform draws from [0, n) without modulo bias (Lemire's
// multiply-and-reject, as math/rand/v2's Rand does). It works on the
// PCG directly: wrapping it in a rand.Rand stores it behind the Source
// interface, which moves it to the heap.
func uniform(rng *rand.PCG, n uint64) uint64 {
	hi, lo := bits.Mul64(rng.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(rng.Uint64(), n)
		}
	}
	return hi
}

// sleepCtx sleeps d, returning early with the ctx error when the
// context expires first. The fast path (no cancellation possible) stays
// a bare time.Sleep. Sleeps at or below spinSleepMax yield-spin
// instead: a timer sleep's realized latency (timer granularity plus
// waking a parked P) is 100-250µs on Linux, an order of magnitude more
// than a short backoff asks for, and it dominates wall time in
// backoff-bound low-concurrency runs. Gosched surrenders the CPU to
// any runnable worker — the semantic point of backing off — so an
// oversubscribed host absorbs the spin as useful work; only an
// otherwise-idle process burns the duration as CPU. The cap is 1ms,
// not the ~250µs where the timer tax stops dominating, because the
// backoff sleeps that matter most are the admission controller's
// scaled yields (young transactions sleeping YieldScale times longer
// than their older blockers): those land in the 240µs-1ms band, fire
// exactly when the host is oversubscribed with the older work they
// are donating CPU to, and paying the timer wakeup there erases the
// aging tie-break's throughput instead of just delaying one sleeper.
const spinSleepMax = 1 * time.Millisecond

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if d <= spinSleepMax {
		for deadline := time.Now().Add(d); ; {
			if err := ctx.Err(); err != nil {
				return err
			}
			runtime.Gosched()
			if !time.Now().Before(deadline) {
				return ctx.Err()
			}
		}
	}
	return parkCtx(ctx, d)
}

// parkCtx sleeps d parked on a timer, returning early with the ctx
// error when the context expires first.
func parkCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// tryResume decides whether execution can continue mid-transaction: the
// kept reads' item versions must be unchanged (their values are still
// current) and the scheduler must re-validate them under a reseeded
// vector.
func (r *Runtime) tryResume(spec Spec, failedAt int, reads, readVers map[string]int64, pr PartialRestarter) bool {
	var kept []string
	for _, op := range spec.Ops[:failedAt] {
		if op.Kind != oplog.Read {
			continue
		}
		if r.Store.ItemVersion(op.Item) != readVers[op.Item] {
			return false // a newer committed value invalidates the kept read
		}
		kept = append(kept, op.Item)
	}
	return pr.TryPartialRestart(spec.ID, kept)
}

// attemptOut is one attempt's outcome: the reads on success, the failing
// op index, the number of ops issued, and the error.
type attemptOut struct {
	reads    map[string]int64
	failedAt int
	ops      int
	err      error
}

// attemptWithTimeout runs one attempt, bounded by AttemptTimeout when
// set and by the context's deadline. A timed-out or deadline-abandoned
// attempt keeps draining in its goroutine against the scheduler (which
// must tolerate stray operations of a dead incarnation) but its maps are
// never reused by the caller, and its op count is lost. This abandonment
// is also what cancels an attempt blocked on a latch or lock wait: the
// caller stops waiting even though the blocked goroutine only unwinds
// once the latch frees.
func (r *Runtime) attemptWithTimeout(ctx context.Context, spec Spec, resumeFrom int, reads, readVers map[string]int64) attemptOut {
	if r.AttemptTimeout <= 0 && ctx.Done() == nil {
		return r.attempt(ctx, spec, resumeFrom, reads, readVers)
	}
	ch := make(chan attemptOut, 1)
	go func() { ch <- r.attempt(ctx, spec, resumeFrom, reads, readVers) }()
	var timeout <-chan time.Time
	if r.AttemptTimeout > 0 {
		timer := time.NewTimer(r.AttemptTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case out := <-ch:
		return out
	case <-timeout:
		return attemptOut{failedAt: -1, err: errAttemptTimeout}
	case <-ctx.Done():
		// Janitor: the abandoned goroutine may Begin a fresh incarnation
		// after the caller's final Abort, leaving a live-looking entry
		// that poisons other transactions' pending-writer checks. The
		// deadline path never reuses the id, so re-aborting once the
		// stray drains is safe and closes the leak.
		go func() { <-ch; r.Sched.Abort(spec.ID) }()
		return attemptOut{failedAt: -1, err: sched.DeadlineExceeded(spec.ID, 0, "attempt abandoned")}
	}
}

// attempt runs ops[resumeFrom:] of the spec; a fresh attempt
// (resumeFrom == 0) begins the transaction first. Think sleeps are
// cancellable: ctx expiry fails the attempt with ErrDeadlineExceeded.
func (r *Runtime) attempt(ctx context.Context, spec Spec, resumeFrom int, reads, readVers map[string]int64) attemptOut {
	out := attemptOut{failedAt: -1}
	if resumeFrom == 0 {
		if ctx.Err() != nil {
			out.err = sched.DeadlineExceeded(spec.ID, 0, "attempt not started")
			return out
		}
		r.Sched.Begin(spec.ID)
	}
	for i := resumeFrom; i < len(spec.Ops); i++ {
		op := spec.Ops[i]
		if r.Think > 0 && i > 0 {
			if err := sleepCtx(ctx, r.Think); err != nil {
				out.failedAt, out.err = i, sched.DeadlineExceeded(spec.ID, 0, "think")
				return out
			}
		}
		out.ops++
		if op.Kind == oplog.Read {
			if r.Store != nil {
				readVers[op.Item] = r.Store.ItemVersion(op.Item)
			}
			v, err := r.Sched.Read(spec.ID, op.Item)
			if err != nil {
				out.failedAt, out.err = i, err
				return out
			}
			reads[op.Item] = v
			continue
		}
		var v int64
		if spec.Value != nil {
			v = spec.Value(op.Item, reads)
		} else {
			v = int64(spec.ID)
		}
		if err := r.Sched.Write(spec.ID, op.Item, v); err != nil {
			out.failedAt, out.err = i, err
			return out
		}
	}
	if r.Think > 0 && len(spec.Ops) > 0 {
		if err := sleepCtx(ctx, r.Think); err != nil {
			out.failedAt, out.err = len(spec.Ops), sched.DeadlineExceeded(spec.ID, 0, "pre-commit think")
			return out
		}
	}
	if err := r.Sched.Commit(spec.ID); err != nil {
		out.failedAt, out.err = len(spec.Ops), err
		return out
	}
	out.reads = reads
	return out
}

// Pool executes specs on w workers and returns every result.
func (r *Runtime) Pool(specs []Spec, workers int) []Result {
	return r.PoolCtx(context.Background(), specs, workers)
}

// PoolCtx is Pool under a context shared by every transaction (each
// still gets its own per-transaction Deadline on top, when configured).
func (r *Runtime) PoolCtx(ctx context.Context, specs []Spec, workers int) []Result {
	if workers < 1 {
		workers = 1
	}
	in := make(chan Spec)
	out := make([]Result, len(specs))
	idx := make(map[int]int, len(specs)) // spec id -> slot
	for i, s := range specs {
		idx[s.ID] = i
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range in {
				out[idx[spec.ID]] = r.ExecCtx(ctx, spec)
			}
		}()
	}
	for _, s := range specs {
		in <- s
	}
	close(in)
	wg.Wait()
	return out
}
