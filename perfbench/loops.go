package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/txn"
)

// Outcome kinds. Every ExecCtx result must be exactly one of the first
// four; anything else is a runtime bug the accounting check reports.
const (
	kindCommitted = iota
	kindGaveUp
	kindShed
	kindDeadline
	kindInconsistent
)

func classifyResult(res txn.Result) int {
	switch {
	case res.Committed && !res.Shed && !res.DeadlineExceeded && res.Attempts > 0:
		return kindCommitted
	case res.Shed && !res.Committed && !res.DeadlineExceeded && res.Attempts == 0:
		return kindShed
	case res.DeadlineExceeded && !res.Committed && !res.Shed:
		return kindDeadline
	case !res.Committed && !res.Shed && !res.DeadlineExceeded && res.Attempts > 0:
		return kindGaveUp
	}
	return kindInconsistent
}

// tally counts the outcomes of one set of txns.
type tally struct {
	offered    int64
	kinds      [kindInconsistent + 1]int64
	attempts   int64
	nonDurable int64   // committed but not acked durable
	execNs     int64   // time spent inside ExecCtx
	lat        []int64 // committed txns' latencies
	done       []int64 // committed txns' completion times, from window start
	ids        []int32 // committed txn ids
	missed     []int32 // deadline-exceeded txn ids
}

func (t *tally) add(id int, o outcome) {
	t.offered++
	t.kinds[o.kind]++
	t.attempts += int64(o.attempts)
	if o.kind == kindCommitted {
		t.lat = append(t.lat, o.lat)
		t.done = append(t.done, o.done)
		t.ids = append(t.ids, int32(id))
		if !o.durable {
			t.nonDurable++
		}
	}
	if o.kind == kindDeadline {
		t.missed = append(t.missed, int32(id))
	}
}

// outcome is the part of a txn.Result the tallies keep.
type outcome struct {
	lat      int64 // ns
	done     int64 // completion, ns from window start
	attempts int32
	kind     uint8
	durable  bool
	traced   bool
}

func newOutcome(res txn.Result, lat, done time.Duration) outcome {
	return outcome{lat: int64(lat), done: int64(done), attempts: int32(res.Attempts), kind: uint8(classifyResult(res)), durable: res.Durable}
}

func (t *tally) merge(o *tally) {
	t.offered += o.offered
	for i := range t.kinds {
		t.kinds[i] += o.kinds[i]
	}
	t.attempts += o.attempts
	t.nonDurable += o.nonDurable
	t.execNs += o.execNs
	t.lat = append(t.lat, o.lat...)
	t.done = append(t.done, o.done...)
	t.ids = append(t.ids, o.ids...)
	t.missed = append(t.missed, o.missed...)
}

func (t *tally) committed() int64 { return t.kinds[kindCommitted] }

// window is what one measured interval produced: a tally per mode
// (index 1 = traced txns) and the harness's own timings.
type window struct {
	modes   [2]tally
	elapsed time.Duration
	// Closed loop: client wall time (summed over clients).
	clientWall time.Duration
	// Open loop: how late the generator started each txn (ns).
	lateness []int64
	// Traced-slice samples of engine counters (see runner.slices).
	kthSpan, staleRetries int64
	tracedTime            time.Duration
}

func (w *window) all() tally {
	var t tally
	t.merge(&w.modes[0])
	t.merge(&w.modes[1])
	return t
}

// runner drives one system. With a tracer, the window alternates
// untraced and traced slices; traced txns run through the decorated
// runtime.
type runner struct {
	sys    *system
	plain  *txn.Runtime
	traced *txn.Runtime
	tr     *tracer
	nextID atomic.Int64
}

func newRunner(sys *system, tr *tracer) *runner {
	r := &runner{sys: sys, plain: sys.rt, tr: tr}
	if tr != nil {
		rt := *sys.rt
		rt.Sched = &tracedSched{t: tr, inner: sys.rt.Sched}
		if sys.rt.Durable != nil {
			rt.Durable = &tracedDurable{t: tr, inner: sys.rt.Durable}
		}
		r.traced = &rt
		if sys.wal != nil {
			sys.store.SetJournal(tr.journal(sys.wal.Journal))
		}
	}
	return r
}

// traceSlices is how many slices a traced window alternates through
// (untraced first, so each mode gets half of the window).
const traceSlices = 10

// run measures one window of length d. traced selects the alternating
// slices; capHint sizes the per-mode sample buffers.
func (r *runner) run(d time.Duration, traced bool, capHint int) *window {
	w := &window{}
	var stopSlices func()
	if traced {
		stopSlices = r.slices(d, w)
	}
	if r.sys.def.Open {
		r.open(d, traced, w)
	} else {
		r.closed(d, traced, capHint, 0, w)
	}
	if stopSlices != nil {
		stopSlices()
	}
	return w
}

// slices flips the tracer on for the odd slices of the window and
// samples the engine's counters at each flip, so their traced-slice
// deltas can be set against traced-slice commits. stop ends the slicing
// early and returns once the goroutine has exited.
func (r *runner) slices(d time.Duration, w *window) (stop func()) {
	eng := r.sys.mt.Striped()
	kthSpan := func() int64 { lo, hi := eng.Counters(); return hi - lo }
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		start := time.Now()
		for j := 0; j < traceSlices; j++ {
			var s0, r0 int64
			var t0 time.Time
			if j%2 == 1 {
				s0, r0, t0 = kthSpan(), eng.StaleRetries(), time.Now()
				r.tr.active.Store(true)
			}
			timer := time.NewTimer(time.Until(start.Add(d * time.Duration(j+1) / traceSlices)))
			stopped := false
			select {
			case <-timer.C:
			case <-done:
				timer.Stop()
				stopped = true
			}
			if j%2 == 1 {
				r.tr.active.Store(false)
				w.kthSpan += kthSpan() - s0
				w.staleRetries += eng.StaleRetries() - r0
				w.tracedTime += time.Since(t0)
			}
			if stopped {
				return
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// exec runs txn id to its outcome and returns the time spent inside
// ExecCtx. A traced txn runs through the decorated runtime and its spans
// are folded into the tracer.
func (r *runner) exec(ctx context.Context, id int, traced bool) (txn.Result, time.Duration) {
	spec := r.sys.spec(id)
	if !traced {
		t0 := time.Now()
		res := r.plain.ExecCtx(ctx, spec)
		return res, time.Since(t0)
	}
	tt := r.tr.start(id)
	s0 := r.tr.now()
	res := r.traced.ExecCtx(ctx, spec)
	s1 := r.tr.now()
	r.tr.finish(tt, s0, s1, res, r.sys.ctrl != nil)
	return res, time.Duration(s1 - s0)
}

// closedN runs Clients closed-loop clients until n txns were started.
func (r *runner) closedN(n int, w *window) {
	r.closed(time.Duration(1<<62), false, n, r.nextID.Load()+int64(n), w)
}

// closed runs Clients closed-loop clients for d, or until a client draws
// a txn id past lastID when that is non-zero: each client starts its
// next txn as soon as the previous ExecCtx returns.
func (r *runner) closed(d time.Duration, traced bool, capHint int, lastID int64, w *window) {
	clients := r.sys.def.Clients
	per := make([]window, clients)
	ends := make([]time.Time, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		cw := &per[c]
		for m := range cw.modes {
			if m == 0 || traced {
				cw.modes[m].lat = make([]int64, 0, capHint/clients+1)
				cw.modes[m].done = make([]int64, 0, capHint/clients+1)
				cw.modes[m].ids = make([]int32, 0, capHint/clients+1)
			}
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for {
				t0 := time.Now()
				if t0.Sub(start) >= d {
					ends[c] = t0
					return
				}
				id := int(r.nextID.Add(1))
				if lastID > 0 && int64(id) > lastID {
					ends[c] = t0
					return
				}
				m := 0
				if traced && r.tr.active.Load() {
					m = 1
				}
				res, exec := r.exec(ctx, id, m == 1)
				t1 := time.Now()
				cw.modes[m].add(id, newOutcome(res, t1.Sub(t0), t1.Sub(start)))
				cw.modes[m].execNs += int64(exec)
			}
		}(c)
	}
	wg.Wait()
	for c := range per {
		w.modes[0].merge(&per[c].modes[0])
		w.modes[1].merge(&per[c].modes[1])
		if el := ends[c].Sub(start); el > w.elapsed {
			w.elapsed = el
		}
		w.clientWall += ends[c].Sub(start)
	}
}

// open offers Rate txn/s for d from one generator, one goroutine per
// txn (independent users). Latency runs from each txn's due time, so a
// generator stall is charged to the txns it delayed.
func (r *runner) open(d time.Duration, traced bool, w *window) {
	rate := r.sys.def.Rate
	n := int(rate * d.Seconds())
	outs := make([]outcome, n)
	w.lateness = make([]int64, n)
	base := r.nextID.Add(int64(n)) - int64(n)
	ctx := context.Background()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		w.lateness[i] = int64(time.Since(due))
		id := int(base) + i + 1
		useTrace := traced && r.tr.active.Load()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _ := r.exec(ctx, id, useTrace)
			end := time.Now()
			outs[i] = newOutcome(res, end.Sub(due), end.Sub(start))
			outs[i].traced = useTrace
		}()
	}
	wg.Wait()
	w.elapsed = d
	for i := range outs {
		m := 0
		if outs[i].traced {
			m = 1
		}
		w.modes[m].add(int(base)+i+1, outs[i])
	}
}
