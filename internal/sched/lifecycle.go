package sched

import (
	"slices"

	"repro/internal/storage"
)

// The transaction lifecycle every write-buffered scheduler shares (the
// Section VI-C-2 rule, written once; MTStriped keeps a pooled, id-keyed
// copy for its zero-allocation path):
//
//   - Begin opens a fresh incarnation; a retry reuses its id.
//   - Read, Write and Commit on an id with no live incarnation (never
//     begun, aborted, or finished) change nothing and return
//     Abort(txn, 0, "no live incarnation"): the runtime abandons
//     deadline-expired attempts, so stray operations are expected.
//   - Commit ends the incarnation, failed or not; Abort is idempotent.
//   - Writes stay in the write set until Publish installs them
//     atomically under the real txn id, so the log writer acks a commit
//     only once that commit's own record is durable.

// Txn is one live incarnation: its buffered write set, the blocker of
// its last rejected operation (the starvation-fix reseed hint), and the
// protocol's own per-incarnation state P.
type Txn[P any] struct {
	id      int
	vals    map[string]int64
	order   []string // the items of vals in first-write order
	Blocker int
	P       P
}

// Lookup returns the transaction's own buffered write of item: a read
// of an item the transaction wrote is served here, not by the store.
func (t *Txn[P]) Lookup(item string) (int64, bool) {
	v, ok := t.vals[item]
	return v, ok
}

// Put buffers the write of v to item.
func (t *Txn[P]) Put(item string, v int64) {
	if t.vals == nil {
		t.vals = make(map[string]int64)
	}
	if _, ok := t.vals[item]; !ok {
		t.order = append(t.order, item)
	}
	t.vals[item] = v
}

// Drop discards the buffered write of item: the Thomas write rule found
// it obsolete.
func (t *Txn[P]) Drop(item string) {
	if i := slices.Index(t.order, item); i >= 0 {
		t.order = slices.Delete(t.order, i, i+1)
		delete(t.vals, item)
	}
}

// Items returns the written items in first-write order. The slice is
// owned by the transaction.
func (t *Txn[P]) Items() []string { return t.order }

// Validate runs a deferred-write protocol's commit-time check over the
// write set in first-write order. An item the check reports obsolete is
// dropped; the first error stops the walk and is returned.
func (t *Txn[P]) Validate(check func(item string) (obsolete bool, err error)) error {
	kept := t.order[:0]
	for i, x := range t.order {
		obsolete, err := check(x)
		if err != nil {
			t.order = append(kept, t.order[i:]...)
			return err
		}
		if obsolete {
			delete(t.vals, x)
		} else {
			kept = append(kept, x)
		}
	}
	t.order = kept
	return nil
}

// Publish installs the write set atomically on behalf of the
// transaction and returns the new store version.
func (t *Txn[P]) Publish(store *storage.Store) int64 {
	return store.ApplyTxn(t.id, t.vals)
}

// Txns is the live-incarnation table. It is not synchronized: the
// owning scheduler guards it with its own mutex.
type Txns[P any] struct {
	live map[int]*Txn[P]
}

// Begin opens a fresh incarnation of txn with protocol state p.
func (s *Txns[P]) Begin(txn int, p P) *Txn[P] {
	if s.live == nil {
		s.live = make(map[int]*Txn[P])
	}
	t := &Txn[P]{id: txn, P: p}
	s.live[txn] = t
	return t
}

// Get returns txn's live incarnation, or the stray-operation abort when
// it has none.
func (s *Txns[P]) Get(txn int) (*Txn[P], error) {
	if t := s.live[txn]; t != nil {
		return t, nil
	}
	return nil, Abort(txn, 0, "no live incarnation")
}

// Read applies the lifecycle's read rules: a stray read gets the
// stray-operation abort, a read of an item txn wrote gets its own
// buffered value. Either answer comes with a nil incarnation; otherwise
// Read returns the live incarnation and the protocol serves the read.
func (s *Txns[P]) Read(txn int, item string) (*Txn[P], int64, error) {
	t, err := s.Get(txn)
	if err != nil {
		return nil, 0, err
	}
	if v, ok := t.Lookup(item); ok {
		return nil, v, nil
	}
	return t, 0, nil
}

// Write buffers a write in txn's live incarnation, or returns the
// stray-operation abort.
func (s *Txns[P]) Write(txn int, item string, v int64) error {
	t, err := s.Get(txn)
	if err == nil {
		t.Put(item, v)
	}
	return err
}

// Lookup returns txn's live incarnation, or nil.
func (s *Txns[P]) Lookup(txn int) *Txn[P] { return s.live[txn] }

// Live reports whether txn has a live incarnation.
func (s *Txns[P]) Live(txn int) bool { return s.live[txn] != nil }

// End removes txn's live incarnation and returns it; nil when there was
// none, so ending twice is harmless.
func (s *Txns[P]) End(txn int) *Txn[P] {
	t := s.live[txn]
	delete(s.live, txn)
	return t
}

// Each calls f on every live incarnation.
func (s *Txns[P]) Each(f func(*Txn[P])) {
	for _, t := range s.live {
		f(t)
	}
}
