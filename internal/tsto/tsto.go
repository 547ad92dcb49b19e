// Package tsto implements the conventional single-valued timestamp-
// ordering baseline (the protocol P4 of SDD-1 [4] / basic T/O of [2]):
// every transaction gets a scalar timestamp at Begin, and all conflicting
// operations must occur in timestamp order against per-item read/write
// high-water marks. This is exactly the "premature serialization order"
// comparator that Example 1 of the paper improves upon.
package tsto

import (
	"sync"

	"repro/internal/sched"
	"repro/internal/storage"
)

// Options configures the TO scheduler.
type Options struct {
	// ThomasWriteRule silently skips obsolete writes (ts < wt(x)) instead
	// of aborting, provided no later read has seen the item.
	ThomasWriteRule bool
	// DeferWrites validates writes at commit time (against the final
	// high-water marks) rather than at write time.
	DeferWrites bool
}

// TO is the single-valued timestamp-ordering runtime scheduler.
type TO struct {
	mu    sync.Mutex
	opts  Options
	store *storage.Store
	next  int64
	rts   map[string]int64  // read high-water mark per item
	wts   map[string]int64  // write high-water mark per item
	wtxn  map[string]int    // id of the transaction holding wts (immediate mode)
	txns  sched.Txns[int64] // incarnation state: its timestamp
}

// New returns a TO(1) scheduler over the store.
func New(store *storage.Store, opts Options) *TO {
	return &TO{
		opts:  opts,
		store: store,
		rts:   make(map[string]int64),
		wts:   make(map[string]int64),
		wtxn:  make(map[string]int),
	}
}

// Name implements sched.Scheduler.
func (t *TO) Name() string { return "TO(1)" }

// Begin implements sched.Scheduler: each (re)start draws a fresh
// timestamp, so a retried transaction serializes later.
func (t *TO) Begin(txn int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.txns.Begin(txn, t.next)
}

// Timestamp returns the scalar timestamp of a live transaction (tests).
func (t *TO) Timestamp(txn int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.txns.Lookup(txn); st != nil {
		return st.P
	}
	return 0
}

// Read implements sched.Scheduler: rejected when a newer write exists
// (ts < wt(x)); otherwise advances rt(x).
func (t *TO) Read(txn int, item string) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, v, err := t.txns.Read(txn, item)
	if st == nil {
		return v, err
	}
	if st.P < t.wts[item] {
		return 0, sched.Abort(txn, 0, "read too late")
	}
	// Immediate mode publishes wt(x) at write time but data at commit: a
	// read past a live writer would see stale data while serializing
	// after the writer — abort instead (no dirty-read window).
	if w := t.uncommittedWriter(txn, item); w != 0 {
		return 0, sched.Abort(txn, w, "read over uncommitted writer")
	}
	if st.P > t.rts[item] {
		t.rts[item] = st.P
	}
	return t.store.Get(item), nil
}

// uncommittedWriter returns the live transaction other than txn whose
// write holds wt(item), or 0 (immediate mode only: deferred writes set
// wt(item) at commit).
func (t *TO) uncommittedWriter(txn int, item string) int {
	if w := t.wtxn[item]; w != txn && t.txns.Live(w) {
		return w
	}
	return 0
}

// validateWrite applies the TO write rules for one item, returning
// (skip, err): skip means the Thomas rule drops the write.
func (t *TO) validateWrite(ts int64, txn int, item string) (bool, error) {
	if ts < t.rts[item] {
		return false, sched.Abort(txn, 0, "write after later read")
	}
	if ts < t.wts[item] {
		if t.opts.ThomasWriteRule {
			return true, nil
		}
		return false, sched.Abort(txn, 0, "write after later write")
	}
	t.wts[item] = ts
	t.wtxn[item] = txn
	return false, nil
}

// Write implements sched.Scheduler.
//
// Immediate mode admits at most one uncommitted writer per item: wt(x)
// moves at write time but the data publishes at commit, so with two
// live writers of x the later-ordered one could publish first and be
// overwritten by the earlier one — a lost update. The second writer
// aborts instead, mirroring the read-side guard.
func (t *TO) Write(txn int, item string, v int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, err := t.txns.Get(txn)
	if err != nil {
		return err
	}
	if !t.opts.DeferWrites {
		if w := t.uncommittedWriter(txn, item); w != 0 {
			return sched.Abort(txn, w, "write conflicts with uncommitted writer")
		}
		skip, err := t.validateWrite(st.P, txn, item)
		if err != nil {
			return err
		}
		if skip {
			st.Drop(item)
			return nil
		}
	}
	st.Put(item, v)
	return nil
}

// Commit implements sched.Scheduler.
func (t *TO) Commit(txn int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, err := t.txns.Get(txn)
	if err != nil {
		return err
	}
	if t.opts.DeferWrites {
		err := st.Validate(func(x string) (bool, error) {
			return t.validateWrite(st.P, txn, x)
		})
		if err != nil {
			t.txns.End(txn)
			return err
		}
	}
	st.Publish(t.store)
	t.txns.End(txn)
	return nil
}

// Abort implements sched.Scheduler.
func (t *TO) Abort(txn int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.txns.End(txn)
}
