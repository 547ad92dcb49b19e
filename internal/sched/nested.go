package sched

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/nested"
	"repro/internal/oplog"
	"repro/internal/storage"
)

// NestedOptions configures the MT(k1, ..., kl) runtime adapter.
type NestedOptions struct {
	// Ks are the per-level vector sizes (nested.Options.Ks).
	Ks []int
	// UnitOf maps a transaction to its containing unit at each level
	// >= 1 (nested.Options.UnitOf); nil puts every transaction in
	// group 0.
	UnitOf func(txn, lvl int) int
	// Coarse selects the reference data path: every store access runs
	// under the protocol mutex. The default (false) is the striped
	// path, where item latches let store accesses on disjoint items
	// overlap.
	Coarse bool
}

// Nested adapts the hierarchical MT(k1, ..., kl) protocol to the
// runtime Scheduler interface (deferred writes: the protocol table has
// no abort/reseed machinery, so WT(x) must only ever name committed
// transactions). The nested tables are unsynchronized, so the protocol
// state stays under the adapter mutex while the striped variant latches
// items (see latchedAdapter).
type Nested struct {
	latchedAdapter[struct{}]
	opts  NestedOptions
	sched *nested.Scheduler
}

// NewNested returns an MT(k1, ..., kl) runtime scheduler over the store.
func NewNested(store *storage.Store, opts NestedOptions) *Nested {
	n := &Nested{
		opts:  opts,
		sched: nested.NewScheduler(nested.Options{Ks: opts.Ks, UnitOf: opts.UnitOf}),
	}
	n.store = store
	if !opts.Coarse {
		n.latches = core.NewLatchTable(engine.DefaultStripes)
	}
	return n
}

// Name implements Scheduler.
func (n *Nested) Name() string {
	name := "MT("
	for i, k := range n.opts.Ks {
		if i > 0 {
			name += ","
		}
		name += fmt.Sprint(k)
	}
	name += ")"
	if n.opts.Coarse {
		name += "/coarse"
	}
	return name
}

// Begin implements Scheduler.
func (n *Nested) Begin(txn int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.txns.Begin(txn, struct{}{})
}

// Read implements Scheduler.
func (n *Nested) Read(txn int, item string) (int64, error) {
	return n.read(txn, item, func(*Txn[struct{}]) error {
		if d := n.sched.Step(oplog.R(txn, item)); d.Verdict == core.Reject {
			return reject(txn, d.Blocker, "read rejected", n.txns.Live)
		}
		return nil
	})
}

// Commit implements Scheduler: the buffered writes are validated now,
// then the write set publishes atomically.
func (n *Nested) Commit(txn int) error {
	return n.commit(txn, func(_ *Txn[struct{}], x string) (bool, error) {
		if d := n.sched.Step(oplog.W(txn, x)); d.Verdict == core.Reject {
			return false, reject(txn, d.Blocker, "commit-time write validation failed", n.txns.Live)
		}
		return false, nil
	}, func(*Txn[struct{}], bool) {})
}

// Abort implements Scheduler. The hierarchical tables have no
// flush-and-reseed machinery; dropping the runtime state is enough,
// since deferred writes mean nothing was published.
func (n *Nested) Abort(txn int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.txns.End(txn)
}

// Protocol exposes the underlying hierarchical scheduler (tests,
// diagnostics).
func (n *Nested) Protocol() *nested.Scheduler {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sched
}
