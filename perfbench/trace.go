package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/txn"
)

// The traced run measures the layers from outside the program, by
// wrapping its public seams: the sched.Scheduler the runtime drives,
// the Durable waiter (*wal.Writer), the store's journal hook
// (wal.Writer.Journal) and the ExecCtx call itself. Every span is
// attributed to the txn id it was made for; a txn's spans share the
// txn.exec span as their parent.

// Scheduler operations, in the order of opNames.
const (
	opBegin = iota
	opRead
	opWrite
	opCommit
	opAbort
	numOps
)

var opNames = [numOps]string{"begin", "read", "write", "commit", "abort"}

// span is one timed call at a layer boundary (ns since the tracer's
// epoch).
type span struct {
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// txnTrace accumulates the spans of one traced txn while ExecCtx runs.
// Its calls are sequential except for a stray attempt the runtime
// abandoned at a deadline, hence the lock.
type txnTrace struct {
	mu         sync.Mutex
	id         int
	firstBegin int64 // 0 until the first Begin
	schedNs    int64
	walNs      int64
	writes     []string // distinct items the live incarnation wrote
	spans      []span
}

// slotCount bounds how many traced txns can be in flight at once
// without two sharing a slot (ids are dense, so id % slotCount only
// collides for txns started slotCount apart).
const slotCount = 1 << 16

// retainTxns bounds how many txns' spans are kept for the trace file.
const retainTxns = 20000

type opStats struct{ calls, ns, rejects atomic.Int64 }

// tracer holds everything the traced run measures.
type tracer struct {
	epoch time.Time
	slots [slotCount]atomic.Pointer[txnTrace]
	pool  sync.Pool

	ops         [numOps]opStats
	causes      [numCauses]atomic.Int64
	itemsCommit atomic.Int64 // distinct items written by committed txns
	journalNs   atomic.Int64
	journalN    atomic.Int64

	// active is set while the window is in a traced slice.
	active atomic.Bool

	mu       sync.Mutex
	n        int64 // traced txns finished
	attempts int64
	retries  int64
	execNs   int64
	admitNs  int64
	schedNs  int64
	walNs    int64
	selfNs   int64
	negSelf  int64 // txns whose self time came out below -1µs
	walWaits []int64
	kept     []keptTxn
}

type keptTxn struct {
	ID    int    `json:"txn"`
	Spans []span `json:"spans"`
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.pool.New = func() any { return &txnTrace{spans: make([]span, 0, 16)} }
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// lookup returns the live trace of txn id, or nil when it has none
// (the txn is untraced, or a stray attempt outlived its ExecCtx).
func (t *tracer) lookup(id int) *txnTrace {
	tt := t.slots[id%slotCount].Load()
	if tt == nil || tt.id != id {
		return nil
	}
	return tt
}

// start registers a traced txn before its ExecCtx call.
func (t *tracer) start(id int) *txnTrace {
	tt := t.pool.Get().(*txnTrace)
	tt.mu.Lock()
	tt.id, tt.firstBegin, tt.schedNs, tt.walNs = id, 0, 0, 0
	tt.writes, tt.spans = tt.writes[:0], tt.spans[:0]
	tt.mu.Unlock()
	t.slots[id%slotCount].Store(tt)
	return tt
}

// finish unregisters the txn and folds its spans into the totals. The
// ExecCtx interval is [start, end]; admission wait is start to the first
// Begin when the workload has admission control (no Begin: the txn was
// shed or timed out while queued, and all of it was admission wait).
func (t *tracer) finish(tt *txnTrace, start, end int64, res txn.Result, hasAdmit bool) {
	t.slots[tt.id%slotCount].CompareAndSwap(tt, nil)
	tt.mu.Lock()
	exec := end - start
	var admitNs int64
	if hasAdmit {
		admitNs = exec
		if tt.firstBegin != 0 {
			admitNs = tt.firstBegin - start
		}
	}
	self := exec - admitNs - tt.schedNs - tt.walNs
	schedNs, walNs := tt.schedNs, tt.walNs
	var kept []span
	t.mu.Lock()
	if len(t.kept) < retainTxns {
		kept = append(make([]span, 0, len(tt.spans)+1), span{Layer: "txn.exec", Start: start, End: end})
		kept = append(kept, tt.spans...)
		t.kept = append(t.kept, keptTxn{ID: tt.id, Spans: kept})
	}
	t.n++
	t.attempts += int64(res.Attempts)
	if res.Attempts > 1 {
		t.retries += int64(res.Attempts - 1)
	}
	t.execNs += exec
	t.admitNs += admitNs
	t.schedNs += schedNs
	t.walNs += walNs
	t.selfNs += self
	if self < -int64(time.Microsecond) {
		t.negSelf++
	}
	if walNs > 0 {
		t.walWaits = append(t.walWaits, walNs)
	}
	t.mu.Unlock()
	tt.mu.Unlock()
	t.pool.Put(tt)
}

// record adds a finished call to its txn's trace (if it has one).
func (t *tracer) record(id int, layer string, start, end int64, fn func(tt *txnTrace)) {
	tt := t.lookup(id)
	if tt == nil {
		return
	}
	tt.mu.Lock()
	if tt.id == id {
		tt.spans = append(tt.spans, span{Layer: layer, Start: start, End: end})
		fn(tt)
	}
	tt.mu.Unlock()
}

// tracedSched is the sched.Scheduler decorator of the traced run.
type tracedSched struct {
	t     *tracer
	inner sched.Scheduler
}

var schedLayers = func() (l [numOps]string) {
	for op, name := range opNames {
		l[op] = "sched." + name
	}
	return l
}()

func (s *tracedSched) Name() string            { return s.inner.Name() + "+trace" }
func (s *tracedSched) Unwrap() sched.Scheduler { return s.inner }
func (s *tracedSched) Begin(id int) {
	s.call(id, opBegin, "", func() error { s.inner.Begin(id); return nil })
}
func (s *tracedSched) Abort(id int) {
	s.call(id, opAbort, "", func() error { s.inner.Abort(id); return nil })
}
func (s *tracedSched) Commit(id int) error {
	return s.call(id, opCommit, "", func() error { return s.inner.Commit(id) })
}
func (s *tracedSched) Write(id int, item string, v int64) error {
	return s.call(id, opWrite, item, func() error { return s.inner.Write(id, item, v) })
}

func (s *tracedSched) Read(id int, item string) (int64, error) {
	var v int64
	err := s.call(id, opRead, "", func() error {
		var err error
		v, err = s.inner.Read(id, item)
		return err
	})
	return v, err
}

// call times one scheduler operation and attributes it.
func (s *tracedSched) call(id, op int, item string, f func() error) error {
	start := s.t.now()
	err := f()
	end := s.t.now()
	st := &s.t.ops[op]
	st.calls.Add(1)
	st.ns.Add(end - start)
	if err != nil {
		st.rejects.Add(1)
		var ae *sched.AbortError
		if errors.As(err, &ae) {
			s.t.causes[classifyAbort(ae.Reason)].Add(1)
		}
	}
	s.t.record(id, schedLayers[op], start, end, func(tt *txnTrace) {
		tt.schedNs += end - start
		switch {
		case op == opBegin:
			if tt.firstBegin == 0 {
				tt.firstBegin = start
			}
			tt.writes = tt.writes[:0]
		case op == opWrite && err == nil:
			for _, w := range tt.writes {
				if w == item {
					return
				}
			}
			tt.writes = append(tt.writes, item)
		case op == opCommit && err == nil:
			s.t.itemsCommit.Add(int64(len(tt.writes)))
		}
	})
	return err
}

// tracedDurable wraps the runtime's Durable waiter (*wal.Writer).
type tracedDurable struct {
	t     *tracer
	inner interface{ Wait(txn int) error }
}

func (d *tracedDurable) Wait(id int) error {
	start := d.t.now()
	err := d.inner.Wait(id)
	end := d.t.now()
	d.t.record(id, "wal.wait", start, end, func(tt *txnTrace) { tt.walNs += end - start })
	return err
}

// journal wraps the store's journal hook (wal.Writer.Journal). It runs
// inside sched.Commit, under the store's commit mutex, so its time is
// part of the commit span; it is counted only in traced slices.
func (t *tracer) journal(inner storage.Journal) storage.Journal {
	return func(ev storage.ApplyEvent) {
		if !t.active.Load() {
			inner(ev)
			return
		}
		start := time.Now()
		inner(ev)
		t.journalNs.Add(int64(time.Since(start)))
		t.journalN.Add(1)
	}
}

// writeSpans writes the retained spans as JSON lines, one txn a line,
// in txn-id order.
func (t *tracer) writeSpans(path string) (int, error) {
	t.mu.Lock()
	kept := t.kept
	t.mu.Unlock()
	sort.Slice(kept, func(i, j int) bool { return kept[i].ID < kept[j].ID })
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	n := 0
	for _, k := range kept {
		if err := enc.Encode(k); err != nil {
			f.Close()
			return n, fmt.Errorf("writing spans: %w", err)
		}
		n += len(k.Spans)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return n, fmt.Errorf("writing spans: %w", err)
	}
	return n, f.Close()
}
