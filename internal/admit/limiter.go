package admit

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// LimiterOptions tunes the adaptive concurrency limiter.
type LimiterOptions struct {
	// Initial is the starting concurrency limit (default 8).
	Initial int
	// Min and Max clamp the limit (defaults 1 and 4096).
	Min, Max int
	// Window is the number of completed transactions per adaptation
	// round (default 32).
	Window int
	// TargetAbortRate is the attempt-level abort rate above which the
	// window triggers a multiplicative decrease (default 0.5: more than
	// half of all executions were wasted work).
	TargetAbortRate float64
	// Decrease is the multiplicative-decrease factor (default 0.75).
	Decrease float64
	// LatencyFactor triggers a decrease when the window's p50 commit
	// latency exceeds this multiple of the best p50 over the last
	// recentWindows adaptation rounds (default 4; the gradient term
	// that catches queueing collapse the abort rate alone misses). The
	// anchor is a sliding minimum, not an all-time best: a light-load
	// phase posting microsecond p50s must not poison the comparison for
	// every later regime where queueing makes those unattainable. 0
	// disables the latency term.
	LatencyFactor float64
	// QueuePerSlot bounds waiters: at most QueuePerSlot × limit
	// admissions may wait for a slot before new arrivals are shed with
	// ErrOverloaded (default 2).
	QueuePerSlot int
}

func (o LimiterOptions) withDefaults() LimiterOptions {
	if o.Initial <= 0 {
		o.Initial = 8
	}
	if o.Min <= 0 {
		o.Min = 1
	}
	if o.Max <= 0 {
		o.Max = 4096
	}
	if o.Window <= 0 {
		o.Window = 32
	}
	if o.TargetAbortRate <= 0 {
		o.TargetAbortRate = 0.5
	}
	if o.Decrease <= 0 || o.Decrease >= 1 {
		o.Decrease = 0.75
	}
	if o.LatencyFactor < 0 {
		o.LatencyFactor = 0
	} else if o.LatencyFactor == 0 {
		o.LatencyFactor = 4
	}
	if o.QueuePerSlot <= 0 {
		o.QueuePerSlot = 2
	}
	if o.Initial < o.Min {
		o.Initial = o.Min
	}
	if o.Initial > o.Max {
		o.Initial = o.Max
	}
	return o
}

// Limiter is an adaptive concurrency limiter: Acquire admits a
// transaction into the scheduler (blocking in a bounded wait queue when
// the limit is reached, shedding with ErrOverloaded when the queue is
// full too), and Release feeds the outcome back. Every Window
// completions the limiter adapts:
//
//   - A storm — a window whose attempt-level abort rate exceeds
//     TargetAbortRate with latency corroboration, or whose p50 latency
//     blew past the recent best by LatencyFactor — multiplies the limit
//     by Decrease.
//   - While the limit binds (windows that shed arrivals), the limiter
//     climbs the goodput curve: every climbWindows windows it compares
//     the commit rate with the previous round's and steps the limit on
//     in the same direction if the rate rose, back the other way if it
//     fell. It settles at the contention knee, the limit past which
//     extra in-flight transactions buy retries instead of commits.
//   - Otherwise (demand under the limit) a healthy window, abort rate
//     under half the target, adds one.
//
// The climb steers by goodput because the knee moves with the workload
// and the host: two workloads on the same MT(k) scheduler put theirs at
// abort rates of 0.29 and 0.47, so no abort-rate band locates it, and
// past it conflicts burn the CPU the extra slots were admitted to use.
type Limiter struct {
	opts LimiterOptions

	mu       sync.Mutex
	limit    int
	inflight int
	queue    []chan struct{} // FIFO hand-off; closed channel = slot granted

	// Window accumulators (under mu).
	winDone     int
	winAttempts int64
	winCommits  int64
	winSheds    int64
	winStart    time.Time // when the current window began

	// Goodput climb state (binding windows only; see climbLocked).
	climbN       int       // windows accumulated into the current round
	climbCommits int64     // commits in the current round
	climbStart   time.Time // when the current round began
	climbRate    float64   // commits/s of the previous round
	climbDir     int       // direction of the last limit move: +1 or -1
	// recentP50 is a ring of the last recentWindows windowed p50 commit
	// latencies; the latency-gradient anchor is its minimum, so the
	// anchor tracks the current load regime and forgets a faster past
	// within recentWindows adaptation rounds.
	recentP50 [recentWindows]int64
	p50Idx    int

	lat metrics.Histogram // commit latencies of the current window

	gauge     metrics.Gauge   // in-flight admissions
	shed      metrics.Counter // admissions refused with ErrOverloaded
	increases metrics.Counter
	decreases metrics.Counter
}

// recentWindows is how many adaptation rounds the latency-gradient
// anchor remembers (see LimiterOptions.LatencyFactor).
const recentWindows = 8

// climbWindows is how many binding windows one goodput-climb round
// spans. A single 32-completion window's commit rate swings by half
// its mean on a busy host; four average enough of that out to see the
// knee's slope while still stepping every ~100 completions.
const climbWindows = 4

// NewLimiter returns a limiter with the given options.
func NewLimiter(o LimiterOptions) *Limiter {
	o = o.withDefaults()
	// The first climb step goes down: a limit that binds from the start
	// has more demand than slots, and the cheaper mistake to test first
	// is admitting too much.
	return &Limiter{opts: o, limit: o.Initial, winStart: time.Now(), climbDir: -1}
}

// Limit returns the current concurrency limit.
func (l *Limiter) Limit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit
}

// InFlight returns the number of currently held slots.
func (l *Limiter) InFlight() int64 { return l.gauge.Value() }

// Gauge exposes the in-flight gauge (reports).
func (l *Limiter) Gauge() *metrics.Gauge { return &l.gauge }

// Shed returns how many admissions were refused.
func (l *Limiter) Shed() int64 { return l.shed.Value() }

// Acquire admits one transaction: immediately when a slot is free,
// after a bounded wait when the limiter is at its limit, or not at all —
// a full wait queue sheds the arrival with a typed *OverloadError, and
// ctx expiry while queued returns ctx.Err().
func (l *Limiter) Acquire(ctx Waiter, id int) error {
	l.mu.Lock()
	if l.inflight < l.limit {
		l.inflight++
		l.mu.Unlock()
		l.gauge.Inc()
		return nil
	}
	if len(l.queue) >= l.opts.QueuePerSlot*l.limit {
		e := &OverloadError{Txn: id, InFlight: l.inflight, Limit: l.limit, Waiters: len(l.queue)}
		l.winSheds++
		l.mu.Unlock()
		l.shed.Inc()
		return e
	}
	w := make(chan struct{})
	l.queue = append(l.queue, w)
	l.mu.Unlock()
	select {
	case <-w:
		l.gauge.Inc()
		return nil
	case <-ctx.Done():
		l.mu.Lock()
		for i, q := range l.queue {
			if q == w {
				l.queue = append(l.queue[:i], l.queue[i+1:]...)
				l.mu.Unlock()
				return ctx.Err()
			}
		}
		// The slot was granted while we were cancelling: hand it on.
		l.releaseSlotLocked()
		l.mu.Unlock()
		return ctx.Err()
	}
}

// releaseSlotLocked frees one slot, handing it to the oldest waiter if
// any and the limit still has room for it. Callers hold mu.
func (l *Limiter) releaseSlotLocked() {
	if len(l.queue) > 0 && l.inflight <= l.limit {
		w := l.queue[0]
		l.queue = l.queue[1:]
		close(w) // inflight count transfers to the waiter
		return
	}
	l.inflight--
}

// Release returns a transaction's slot and feeds its outcome into the
// adaptation window.
func (l *Limiter) Release(committed bool, attempts int, latency time.Duration) {
	if committed {
		l.lat.ObserveDuration(latency)
	}
	l.mu.Lock()
	l.winDone++
	l.winAttempts += int64(attempts)
	if committed {
		l.winCommits++
	}
	if l.winDone >= l.opts.Window {
		l.adaptLocked()
	}
	l.releaseSlotLocked()
	l.mu.Unlock()
	l.gauge.Dec()
}

// adaptLocked runs one adaptation round over the finished window.
// Callers hold mu.
func (l *Limiter) adaptLocked() {
	attempts, commits, sheds := l.winAttempts, l.winCommits, l.winSheds
	l.winDone, l.winAttempts, l.winCommits, l.winSheds = 0, 0, 0, 0
	winStart, now := l.winStart, time.Now()
	l.winStart = now
	snap := l.lat.Snapshot()
	l.lat.Reset()
	p50 := snap.Percentile(50)
	var anchor int64
	for _, v := range l.recentP50 {
		if v > 0 && (anchor == 0 || v < anchor) {
			anchor = v
		}
	}
	abortRate := 0.0
	if attempts > 0 {
		abortRate = float64(attempts-commits) / float64(attempts)
	}
	slow := l.opts.LatencyFactor > 0 && anchor > 0 && p50 > int64(float64(anchor)*l.opts.LatencyFactor)
	// A high abort rate alone is not overload evidence when retries are
	// cheap: a hotspot workload can waste half its attempts at ANY
	// concurrency while commit latency stays flat — throttling there
	// sheds work the scheduler absorbs fine. So the abort-rate trigger
	// needs corroboration: commit p50 elevated past half the collapse
	// factor (a storm's survivors carry their retry time in their
	// latency, so genuine storms corroborate themselves), or a window
	// that committed nothing at all. With the latency term disabled the
	// abort rate stands alone, as before.
	degraded := true
	if l.opts.LatencyFactor > 0 && commits > 0 {
		corr := l.opts.LatencyFactor / 2
		if corr < 1 {
			corr = 1
		}
		degraded = anchor > 0 && p50 > int64(float64(anchor)*corr)
	}
	if p50 > 0 {
		l.recentP50[l.p50Idx] = p50
		l.p50Idx = (l.p50Idx + 1) % recentWindows
	}
	switch {
	case (abortRate > l.opts.TargetAbortRate && degraded) || slow:
		next := int(float64(l.limit) * l.opts.Decrease)
		if next >= l.limit {
			next = l.limit - 1
		}
		// The cut is the climb's latest move: the next round judges it.
		l.climbN, l.climbDir = 0, -1
		l.setLimitLocked(next)
	case sheds > 0 || l.climbN > 0:
		l.climbLocked(commits, winStart, now)
	case abortRate < l.opts.TargetAbortRate/2:
		l.setLimitLocked(l.limit + 1)
	}
}

// climbLocked folds one window into the goodput climb, the controller
// while the limit binds: every climbWindows windows it measures the
// commit rate and steps the limit by max(limit/8, 1) — on in the
// direction of the last move if the rate rose, back if it fell
// (perturb and observe). Shed arrivals are the binding evidence: more
// demand than slots means the limit, not the offered load, sets the
// in-flight count, so the rate responds to the limit. A round that
// began binding finishes even if demand drops mid-round. Callers hold
// mu.
func (l *Limiter) climbLocked(commits int64, winStart, now time.Time) {
	if l.climbN == 0 {
		l.climbStart = winStart
	}
	l.climbN++
	l.climbCommits += commits
	if l.climbN < climbWindows {
		return
	}
	rate := float64(l.climbCommits) / now.Sub(l.climbStart).Seconds()
	l.climbN, l.climbCommits = 0, 0
	if rate < l.climbRate {
		l.climbDir = -l.climbDir
	}
	l.climbRate = rate
	l.setLimitLocked(l.limit + l.climbDir*max(l.limit/8, 1))
}

// setLimitLocked moves the limit to next, clamped to [Min, Max], counts
// the move, and hands freed room to queued waiters at once. Callers hold
// mu.
func (l *Limiter) setLimitLocked(next int) {
	next = min(max(next, l.opts.Min), l.opts.Max)
	switch {
	case next > l.limit:
		l.increases.Inc()
	case next < l.limit:
		l.decreases.Inc()
	default:
		return
	}
	l.limit = next
	for len(l.queue) > 0 && l.inflight < l.limit {
		w := l.queue[0]
		l.queue = l.queue[1:]
		l.inflight++
		close(w)
	}
}
