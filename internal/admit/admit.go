// Package admit is the overload-control and progress-guarantee layer in
// front of the transaction runtime. The MT-family protocols resolve
// conflicts by aborting and restarting transactions, so under offered
// load past the contention knee the system can collapse into restart
// storms: every scheduler cycle is spent on work that never commits.
// The paper proves serializability, not progress — this package supplies
// the progress half:
//
//   - Limiter: an adaptive concurrency limiter gates admission — cut on
//     the windowed abort rate and commit-latency percentiles, steered by
//     measured goodput while it binds — shedding excess load with a
//     typed ErrOverloaded before it consumes scheduler resources.
//   - Aging: restart counts carried across a transaction's incarnations
//     feed priority aging — young transactions yield backoff to older
//     blockers, and a transaction past the elder threshold gains an
//     admission barrier (no new first attempts while an elder is
//     in flight) plus zero-backoff retries, so combined with the
//     engine's Section III-D-4 reseeding it eventually wins every
//     conflict. This is the bounded-timestamp intuition of Haldar &
//     Vitányi: age, not luck, decides who goes next.
//   - Storm: a detector over the global abort:commit ratio that widens
//     every backoff multiplicatively while a restart storm is running
//     and releases the damping with hysteresis once it clears.
//   - Breaker: a per-site circuit breaker (built on fault.Health) for
//     the distributed scheduler, so a flapping site fails fast instead
//     of burning every attempt's deadline.
//
// Controller bundles the first three behind the two calls the runtime
// makes (Admit / Done) plus the per-abort hook (OnAbort) that shapes the
// next backoff sleep. The Breaker is wired separately into the DMT
// adapter's site-admission path.
package admit

import (
	"errors"
	"fmt"
	"time"
)

// ErrOverloaded is returned by Admit when the system refuses new work:
// the limiter is at its concurrency limit and the wait queue is full, so
// admitting the transaction would only deepen the restart storm. Callers
// should surface the rejection (shed) rather than retry immediately.
var ErrOverloaded = errors.New("admit: overloaded, admission refused")

// OverloadError wraps ErrOverloaded with the limiter state at rejection.
type OverloadError struct {
	Txn      int
	InFlight int
	Limit    int
	Waiters  int
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("admit: txn %d shed (inflight %d, limit %d, waiters %d)",
		e.Txn, e.InFlight, e.Limit, e.Waiters)
}

// Unwrap makes errors.Is(err, ErrOverloaded) true.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// Options configures a Controller. Zero values select the defaults of
// each component; a nil-safe Controller with everything disabled is not
// a thing — construct one only when overload control is wanted.
type Options struct {
	Limiter LimiterOptions
	Aging   AgingOptions
	Storm   StormOptions
}

// Controller bundles the limiter, the aging table and the storm detector
// behind the runtime's call points. All methods are safe for concurrent
// use.
type Controller struct {
	lim   *Limiter
	age   *Aging
	storm *Storm
}

// NewController builds a Controller from the options.
func NewController(o Options) *Controller {
	return &Controller{
		lim:   NewLimiter(o.Limiter),
		age:   NewAging(o.Aging),
		storm: NewStorm(o.Storm),
	}
}

// Admit gates a transaction's first attempt: it waits for the elder
// barrier (no new work while an aged transaction is fighting for its
// commit), then acquires a limiter slot. It returns nil on admission, a
// typed *OverloadError when the load must be shed, or the context error
// when ctx expires while waiting.
func (c *Controller) Admit(ctx Waiter, id int) error {
	if err := c.age.WaitBarrier(ctx); err != nil {
		return err
	}
	if err := c.lim.Acquire(ctx, id); err != nil {
		return err
	}
	c.age.Admitted(id)
	return nil
}

// Done reports a transaction's final outcome (committed or gave up) and
// releases its limiter slot and aging state. latency is the wall time
// from first attempt to outcome; attempts counts executions including
// the final one.
func (c *Controller) Done(id int, committed bool, attempts int, latency time.Duration) {
	c.lim.Release(committed, attempts, latency)
	c.age.Done(id)
	if committed {
		c.storm.OnCommit()
	}
}

// RetryGate parks a retry while the aging crisis gate is down (an elder
// is live and id is not the oldest live transaction). Call it before
// launching any attempt after the first; it returns nil when the
// transaction may proceed, or ctx's error if ctx expires while parked.
func (c *Controller) RetryGate(ctx Waiter, id int) error {
	return c.age.RetryGate(ctx, id)
}

// OnAbort reports one conflict abort of id by blocker and returns the
// scale factor for the next backoff sleep: <1 shortens it (the oldest
// live transaction's express lane), 1 is the neutral base, >1 widens
// the sleep (young transactions yielding to older blockers, global
// storm damping). The runtime multiplies its backoff base by the
// returned scale.
func (c *Controller) OnAbort(id, blocker int) float64 {
	c.storm.OnAbort()
	return c.age.OnAbort(id, blocker) * c.storm.Scale()
}

// Limit returns the limiter's current concurrency limit.
func (c *Controller) Limit() int { return c.lim.Limit() }

// InFlight returns the number of currently admitted transactions.
func (c *Controller) InFlight() int64 { return c.lim.InFlight() }

// Stats snapshots every component's counters.
func (c *Controller) Stats() Stats {
	s := Stats{
		Limit:       c.lim.Limit(),
		InFlight:    c.lim.InFlight(),
		MaxInFlight: c.lim.gauge.High(),
		Shed:        c.lim.shed.Value(),
		Decreases:   c.lim.decreases.Value(),
		Increases:   c.lim.increases.Value(),
		Elders:      c.age.elders.Value(),
		ElderWaits:  c.age.barrierWaits.Value(),
		GateWaits:   c.age.gateWaits.Value(),
		StormTrips:  c.storm.trips.Value(),
		Storming:    c.storm.Storming(),
	}
	return s
}

// Stats is a point-in-time snapshot of the controller's counters.
type Stats struct {
	Limit       int   // current concurrency limit
	InFlight    int64 // currently admitted transactions
	MaxInFlight int64 // high-water mark of admitted transactions
	Shed        int64 // admissions refused with ErrOverloaded
	Decreases   int64 // limit reductions (storm cuts and climb steps down)
	Increases   int64 // limit raises (healthy windows and climb steps up)
	Elders      int64 // transactions promoted past the elder threshold
	ElderWaits  int64 // admissions that waited on the elder barrier
	GateWaits   int64 // retries parked by the crisis gate
	StormTrips  int64 // storm detector trips
	Storming    bool  // currently inside a detected storm
}

// String renders the snapshot for reports.
func (s Stats) String() string {
	return fmt.Sprintf("limit=%d inflight=%d max-inflight=%d shed=%d aimd=+%d/-%d elders=%d storm-trips=%d",
		s.Limit, s.InFlight, s.MaxInFlight, s.Shed, s.Increases, s.Decreases, s.Elders, s.StormTrips)
}

// Waiter is the subset of context.Context the package blocks on; taking
// the interface keeps admit free of direct context plumbing in tests.
type Waiter interface {
	Done() <-chan struct{}
	Err() error
}
