package main

import (
	"sync/atomic"

	"repro/internal/sched"
)

// commitWitness records which txns the scheduler actually committed,
// independently of what the runtime reported. The runtime abandons an
// attempt still in flight when a txn's deadline expires and reports
// the txn DeadlineExceeded, but the abandoned attempt keeps running and
// can still commit. The checks count such late commits from this record
// instead of assuming that a deadline-exceeded txn committed nothing.
type commitWitness struct {
	inner  sched.Scheduler
	chunks [witnessChunks]atomic.Pointer[witnessChunk]
}

const (
	witnessChunkBits = 1 << 16
	witnessChunks    = 1 << 10 // ids below 2^26
)

type witnessChunk [witnessChunkBits / 64]atomic.Uint64

func (c *commitWitness) Name() string                            { return c.inner.Name() }
func (c *commitWitness) Unwrap() sched.Scheduler                 { return c.inner }
func (c *commitWitness) Begin(id int)                            { c.inner.Begin(id) }
func (c *commitWitness) Abort(id int)                            { c.inner.Abort(id) }
func (c *commitWitness) Read(id int, item string) (int64, error) { return c.inner.Read(id, item) }
func (c *commitWitness) Write(id int, item string, v int64) error {
	return c.inner.Write(id, item, v)
}

func (c *commitWitness) Commit(id int) error {
	err := c.inner.Commit(id)
	if err == nil {
		c.set(id)
	}
	return err
}

func (c *commitWitness) set(id int) {
	slot := &c.chunks[id/witnessChunkBits]
	ch := slot.Load()
	if ch == nil {
		slot.CompareAndSwap(nil, new(witnessChunk))
		ch = slot.Load()
	}
	w := &ch[id%witnessChunkBits/64]
	bit := uint64(1) << (id % 64)
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// committed reports whether the scheduler committed txn id.
func (c *commitWitness) committed(id int) bool {
	ch := c.chunks[id/witnessChunkBits].Load()
	return ch != nil && ch[id%witnessChunkBits/64].Load()&(uint64(1)<<(id%64)) != 0
}
