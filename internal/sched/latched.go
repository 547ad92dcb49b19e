package sched

import (
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/storage"
)

// latchedAdapter is the data path MT, Composite and Nested share: their
// protocol tables are unsynchronized, so every protocol step runs under
// one mutex, while data access is striped — an operation holds its
// items' latches (acquired before mu, released after the store access),
// so storage reads and commit publishes on disjoint items overlap and
// the latch still pins each decision to the store state it was made
// against. With nil latches (the coarse references, MT always) every
// store access runs under the mutex instead.
type latchedAdapter[P any] struct {
	mu      sync.Mutex
	store   *storage.Store
	latches *core.LatchTable // nil in the coarse reference variant
	txns    Txns[P]
}

// release leaves the protocol critical section around the data access
// f: f runs inside the mutex when coarse, after it (under the caller's
// latches) when striped.
func (a *latchedAdapter[P]) release(f func()) {
	if a.latches == nil {
		defer a.mu.Unlock()
		f()
		return
	}
	a.mu.Unlock()
	f()
}

// read serves an own-write hit from the write set; otherwise it runs
// the protocol's read step and fetches the committed value, the item's
// latch held across both.
func (a *latchedAdapter[P]) read(txn int, item string, step func(*Txn[P]) error) (int64, error) {
	if a.latches != nil {
		defer a.latches.Lock(item)()
	}
	a.mu.Lock()
	st, v, err := a.txns.Read(txn, item)
	if st == nil {
		a.mu.Unlock()
		return v, err
	}
	if err := step(st); err != nil {
		a.mu.Unlock()
		return 0, err
	}
	a.release(func() { v = a.store.Get(item) })
	return v, nil
}

// Write implements Scheduler: writes are buffered until commit.
func (a *latchedAdapter[P]) Write(txn int, item string, v int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.txns.Write(txn, item, v)
}

// commit runs the protocol's commit-time step over the write set
// (dropping writes it finds obsolete), tells the protocol the outcome
// through finish, ends the incarnation and, on success, publishes the
// write set. Striped, the write set's latches are held from validation
// through the publish, so a concurrent reader of a written item sees
// either the pre-commit state with the pre-commit ordering or the
// post-commit state with the post-commit ordering.
func (a *latchedAdapter[P]) commit(txn int, step func(*Txn[P], string) (obsolete bool, err error), finish func(st *Txn[P], ok bool)) error {
	a.mu.Lock()
	st, err := a.txns.Get(txn)
	if err != nil {
		a.mu.Unlock()
		return err
	}
	if a.latches != nil {
		// Latches order before the mutex. Re-check once both are held: a
		// stray incarnation (abandoned timeout goroutine) may have
		// aborted or replaced this id meanwhile.
		items := slices.Clone(st.Items())
		a.mu.Unlock()
		defer a.latches.Lock(items...)()
		a.mu.Lock()
		if a.txns.Lookup(txn) != st {
			a.mu.Unlock()
			return Abort(txn, 0, "transaction state lost before commit")
		}
	}
	err = st.Validate(func(x string) (bool, error) { return step(st, x) })
	finish(st, err == nil)
	a.txns.End(txn)
	if err != nil {
		a.mu.Unlock()
		return err
	}
	a.release(func() { st.Publish(a.store) })
	return nil
}
