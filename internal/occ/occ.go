// Package occ implements the optimistic concurrency-control baseline
// (Kung-Robinson serial validation), the "wait till the end of the
// transaction to make a commit/abort decision" comparator from the
// paper's introduction [13]. Reads and writes always succeed; at commit
// the transaction's read set is validated against the write sets of every
// transaction that committed after it began.
package occ

import (
	"sync"

	"repro/internal/sched"
	"repro/internal/storage"
)

// OCC is the optimistic runtime scheduler.
type OCC struct {
	mu    sync.Mutex
	store *storage.Store
	// committed is the validation log: write sets of committed
	// transactions tagged with their commit sequence number.
	committed []committedTxn
	commitSeq int64
	txns      sched.Txns[occState]
}

type committedTxn struct {
	seq    int64
	writes []string
}

// occState is an incarnation's validation state.
type occState struct {
	startSeq int64
	reads    map[string]bool
}

// New returns an OCC scheduler over the store.
func New(store *storage.Store) *OCC {
	return &OCC{store: store}
}

// Name implements sched.Scheduler.
func (o *OCC) Name() string { return "OCC" }

// Begin implements sched.Scheduler.
func (o *OCC) Begin(txn int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.txns.Begin(txn, occState{startSeq: o.commitSeq, reads: make(map[string]bool)})
}

// Read implements sched.Scheduler: always succeeds; the item joins the
// read set.
func (o *OCC) Read(txn int, item string) (int64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	st, v, err := o.txns.Read(txn, item)
	if st == nil {
		return v, err
	}
	st.P.reads[item] = true
	return o.store.Get(item), nil
}

// Write implements sched.Scheduler: always succeeds; buffered.
func (o *OCC) Write(txn int, item string, v int64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.txns.Write(txn, item, v)
}

// Commit implements sched.Scheduler: serial validation — abort if any
// transaction that committed after our start wrote something we read.
func (o *OCC) Commit(txn int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	st, err := o.txns.Get(txn)
	if err != nil {
		return err
	}
	for _, c := range o.committed {
		if c.seq <= st.P.startSeq {
			continue
		}
		for _, x := range c.writes {
			if st.P.reads[x] {
				o.txns.End(txn)
				return sched.Abort(txn, 0, "read set invalidated by "+x)
			}
		}
	}
	o.commitSeq++
	if ws := st.Items(); len(ws) > 0 {
		o.committed = append(o.committed, committedTxn{seq: o.commitSeq, writes: ws})
	}
	st.Publish(o.store)
	o.txns.End(txn)
	o.gc()
	return nil
}

// gc prunes validation-log entries older than every active transaction.
func (o *OCC) gc() {
	minStart := o.commitSeq
	o.txns.Each(func(st *sched.Txn[occState]) {
		minStart = min(minStart, st.P.startSeq)
	})
	keep := o.committed[:0]
	for _, c := range o.committed {
		if c.seq > minStart {
			keep = append(keep, c)
		}
	}
	o.committed = keep
}

// Abort implements sched.Scheduler.
func (o *OCC) Abort(txn int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.txns.End(txn)
	o.gc()
}

// ValidationLogLen returns the current validation-log length (gc tests).
func (o *OCC) ValidationLogLen() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.committed)
}
