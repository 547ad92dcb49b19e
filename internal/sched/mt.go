package sched

import (
	"fmt"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/oplog"
	"repro/internal/storage"
)

// MTOptions configures the MT(k) runtime adapter.
type MTOptions struct {
	// Core carries the protocol options (K, ThomasWriteRule,
	// StarvationAvoidance, hot-item encoding, ...).
	Core engine.Options
	// DeferWrites enables the Section VI-C-2 scheme: writes are buffered
	// and validated at commit, so WT(x) only ever names committed
	// transactions and a committed transaction can never be aborted.
	// When false, writes are validated (and WT updated) at write time —
	// Algorithm 1's immediate discipline — while data still publishes
	// atomically at commit.
	DeferWrites bool
}

// MT adapts the core MT(k) protocol to the runtime Scheduler interface.
// It is the coarse reference: one mutex covers protocol and data.
type MT struct {
	latchedAdapter[struct{}] // latches stay nil
	opts                     MTOptions
	sched                    *engine.Scheduler
}

// NewMT returns an MT(k)-family runtime scheduler over the store.
func NewMT(store *storage.Store, opts MTOptions) *MT {
	m := &MT{opts: opts, sched: engine.NewScheduler(opts.Core)}
	m.store = store
	return m
}

// Name implements Scheduler.
func (m *MT) Name() string {
	name := fmt.Sprintf("MT(%d)", m.opts.Core.K)
	if m.opts.Core.MonotonicEncoding {
		name += "/mono"
	}
	if m.opts.DeferWrites {
		name += "/deferred"
	}
	return name
}

// Begin implements Scheduler.
func (m *MT) Begin(txn int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.txns.Begin(txn, struct{}{})
}

// Read implements Scheduler: the read is validated immediately
// (Algorithm 1); the value comes from the transaction's own write buffer
// or the committed store.
//
// Immediate mode publishes WT(x) at write time but the DATA only at
// commit, so a read ordered after a still-uncommitted writer would see
// the old value while the protocol believes it saw the new one — a lost
// update. Such reads abort (no dirty-read window); a read ordered BEFORE
// the pending writer (the line-9 slot-in) legitimately reads the old
// version and proceeds. Deferred mode never hits this: WT(x) only ever
// names committed transactions.
func (m *MT) Read(txn int, item string) (int64, error) {
	return m.read(txn, item, func(st *Txn[struct{}]) error {
		d := m.sched.Step(oplog.R(txn, item))
		if d.Verdict == core.Reject {
			st.Blocker = d.Blocker
			return reject(txn, d.Blocker, "read rejected", m.txns.Live)
		}
		if w := m.sched.WT(item); !m.opts.DeferWrites && w != txn && m.txns.Live(w) &&
			!m.sched.Vector(txn).Less(m.sched.Vector(w)) {
			st.Blocker = w
			return Abort(txn, w, "read ordered after uncommitted writer")
		}
		return nil
	})
}

// Write implements Scheduler.
//
// Immediate mode admits at most one uncommitted writer per item: WT(x)
// is published at write time but the data only at commit, so if two
// live transactions both held accepted writes on x, whichever commit
// order occurred would invert the decided write order for one of them
// (the earlier-ordered writer publishing second silently clobbers the
// later-ordered committed value — the lost update the schedule explorer
// found on mix-3x2). The second writer aborts before the protocol step,
// mirroring the read-side "ordered after uncommitted writer" guard.
// Deferred mode never hits this: writes are validated at commit, where
// publication and ordering are one atomic decision.
func (m *MT) Write(txn int, item string, v int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.txns.Get(txn)
	if err != nil {
		return err
	}
	if !m.opts.DeferWrites {
		if w := m.sched.WT(item); w != 0 && w != txn && m.txns.Live(w) {
			st.Blocker = w
			return Abort(txn, w, "write conflicts with uncommitted writer")
		}
		d := m.sched.Step(oplog.W(txn, item))
		switch d.Verdict {
		case core.Reject:
			st.Blocker = d.Blocker
			return reject(txn, d.Blocker, "write rejected", m.txns.Live)
		case core.AcceptIgnored:
			// Thomas write rule: the write is obsolete; drop it.
			st.Drop(item)
			return nil
		}
	}
	st.Put(item, v)
	return nil
}

// Commit implements Scheduler: with DeferWrites the buffered writes are
// validated now (each via the ordinary write arm of Algorithm 1); the
// surviving write set publishes atomically.
func (m *MT) Commit(txn int) error {
	return m.commit(txn, func(st *Txn[struct{}], x string) (bool, error) {
		if !m.opts.DeferWrites {
			return false, nil
		}
		d := m.sched.Step(oplog.W(txn, x))
		if d.Verdict == core.Reject {
			st.Blocker = d.Blocker
			return false, reject(txn, d.Blocker, "commit-time write validation failed", m.txns.Live)
		}
		return d.Verdict == core.AcceptIgnored, nil
	}, func(st *Txn[struct{}], ok bool) {
		if ok {
			m.sched.Commit(txn)
		} else {
			m.sched.Abort(txn, st.Blocker)
		}
	})
}

// Abort implements Scheduler.
func (m *MT) Abort(txn int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	blocker := 0
	if st := m.txns.End(txn); st != nil {
		blocker = st.Blocker
	}
	m.sched.Abort(txn, blocker)
}

// Core exposes the underlying protocol scheduler (tests, diagnostics).
func (m *MT) Core() *engine.Scheduler { return m.sched }

// TryPartialRestart implements the Section VI-C-1 partial rollback for a
// transaction whose last operation was rejected: the vector is flushed
// and reseeded past the blocker (so the retried suffix can be ordered)
// and the transaction's earlier accepted reads are re-validated under the
// new vector. On success the caller may resume execution after the kept
// prefix, preserving its computation; the caller is responsible for
// checking that the kept read VALUES are still current (per-item store
// versions) before resuming. Requires StarvationAvoidance; returns false
// when a full restart is needed.
func (m *MT) TryPartialRestart(txn int, readItems []string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.txns.Lookup(txn)
	if st == nil || st.Blocker == 0 || !m.opts.Core.StarvationAvoidance {
		return false
	}
	// Flush and reseed (keeps the transaction live: the write buffer and
	// state survive).
	m.sched.Abort(txn, st.Blocker)
	st.Blocker = 0
	for _, x := range readItems {
		if d := m.sched.Step(oplog.R(txn, x)); d.Verdict == core.Reject {
			st.Blocker = d.Blocker
			return false
		}
	}
	return true
}

// Composite adapts MT(k⁺) to the runtime (deferred writes). When every
// subprotocol has stopped, Algorithm 2 step 4 applies: all active
// transactions abort and the composite machinery restarts fresh (a new
// epoch). The protocol state stays under the adapter mutex — an epoch
// restart swaps the whole scheduler, which no per-item scheme survives
// — while data access is striped (see latchedAdapter).
type Composite struct {
	latchedAdapter[uint64] // incarnation state: the epoch it began in
	k                      int
	sub                    engine.Options
	sched                  *composite.Scheduler
	epoch                  uint64
}

// NewComposite returns an MT(k⁺) runtime scheduler (deferred writes)
// with the striped data path: item latches let storage accesses on
// disjoint items overlap.
func NewComposite(store *storage.Store, k int, sub engine.Options) *Composite {
	c := NewCompositeCoarse(store, k, sub)
	c.latches = core.NewLatchTable(engine.DefaultStripes)
	return c
}

// NewCompositeCoarse returns the coarse MT(k⁺) runtime scheduler: every
// store access runs under the protocol mutex, like the seed adapter.
// It is the differential reference the striped variant benches against.
func NewCompositeCoarse(store *storage.Store, k int, sub engine.Options) *Composite {
	c := &Composite{k: k, sub: sub, sched: composite.NewScheduler(composite.Options{K: k, Sub: sub})}
	c.store = store
	return c
}

// Name implements Scheduler.
func (c *Composite) Name() string {
	if c.latches == nil {
		return fmt.Sprintf("MT(%d+)/coarse", c.k)
	}
	return fmt.Sprintf("MT(%d+)", c.k)
}

// Begin implements Scheduler.
func (c *Composite) Begin(txn int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.txns.Begin(txn, c.epoch)
}

// step runs one operation, handling the epoch-restart rule.
func (c *Composite) step(st *Txn[uint64], op oplog.Op) error {
	if st.P != c.epoch {
		return Abort(op.Txn, 0, "composite epoch restart")
	}
	d := c.sched.Step(op)
	if d.Verdict == core.Reject {
		// All subprotocols stopped: abort all active transactions and
		// restart (Algorithm 2 step 4-i).
		c.epoch++
		c.sched = composite.NewScheduler(composite.Options{K: c.k, Sub: c.sub})
		return Abort(op.Txn, 0, "all subprotocols stopped")
	}
	return nil
}

// Read implements Scheduler.
func (c *Composite) Read(txn int, item string) (int64, error) {
	return c.read(txn, item, func(st *Txn[uint64]) error {
		return c.step(st, oplog.R(txn, item))
	})
}

// Commit implements Scheduler: the buffered writes are validated now,
// then the write set publishes atomically.
func (c *Composite) Commit(txn int) error {
	return c.commit(txn, func(st *Txn[uint64], x string) (bool, error) {
		return false, c.step(st, oplog.W(txn, x))
	}, func(_ *Txn[uint64], ok bool) {
		if ok {
			c.sched.Commit(txn)
		} else {
			c.sched.Abort(txn, 0)
		}
	})
}

// Abort implements Scheduler.
func (c *Composite) Abort(txn int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.txns.End(txn) != nil {
		c.sched.Abort(txn, 0)
	}
}

// Protocol exposes the current composite scheduler (tests and
// diagnostics; epoch restarts swap it, so quiesce before inspecting).
func (c *Composite) Protocol() *composite.Scheduler {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sched
}
