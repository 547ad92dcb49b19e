// Package interval implements the dynamic timestamp-interval baseline of
// Bayer et al. [1], the related work the paper compares against in
// Section VI-A. Every transaction starts with the full timestamp interval
// (0, 2⁶²) which shrinks explicitly each time a dependency is discovered:
// to encode T_a -> T_b a split point c is chosen inside the overlap of the
// two intervals, T_a keeps the part below c and T_b the part above. A
// dependency between two already-disjoint intervals in the wrong order
// aborts.
//
// The paper's criticisms are all observable here: the split-point choice
// is a policy knob (SplitMid/SplitLow/SplitHigh), intervals shrink
// exponentially and can be exhausted (fragmentation), and a restarted
// transaction that always receives the full interval can starve.
package interval

import (
	"sort"
	"sync"

	"repro/internal/sched"
	"repro/internal/storage"
)

// SplitPolicy selects the split point c inside the overlap of two
// intervals when a dependency is encoded.
type SplitPolicy int

// Split policies.
const (
	// SplitMid picks the midpoint of the overlap.
	SplitMid SplitPolicy = iota
	// SplitLow leaves the predecessor the smallest possible interval.
	SplitLow
	// SplitHigh leaves the successor the smallest possible interval.
	SplitHigh
)

// MaxTimestamp bounds the timestamp space.
const MaxTimestamp = int64(1) << 62

// Options configures the interval scheduler.
type Options struct {
	Policy SplitPolicy
	// NoCompact disables timestamp-space compaction, exposing the raw
	// fragmentation/starvation behaviour for the Section VI-A
	// comparison experiment.
	NoCompact bool
}

// span is a transaction's timestamp interval (lo, hi], exclusive of
// lo; valid while lo < hi.
type span struct {
	lo, hi int64
}

// Interval is the Bayer-style runtime scheduler.
type Interval struct {
	mu    sync.Mutex
	opts  Options
	store *storage.Store
	txns  sched.Txns[span]
	// rt/wt track the most recent reader/writer ids per item, exactly
	// like MT(k)'s indices, so both schemes see identical dependencies.
	rt, wt map[string]int
	// fin records final intervals of finished transactions still
	// referenced by rt/wt. Every id rt/wt name is live or in fin.
	fin map[int]*span
	// exhausted counts dependencies that failed only because an overlap
	// had shrunk to nothing (fragmentation).
	exhausted int64
	// compactions counts order-preserving renumberings of the timestamp
	// space. Without them, a hot-item chain exhausts the space after
	// ~62 midpoint splits and every later transaction starves — the
	// fragmentation problem of Section VI-A item 3. Compaction is the
	// extra machinery interval schemes need and vectors do not.
	compactions int64
}

// New returns an interval scheduler over the store.
func New(store *storage.Store, opts Options) *Interval {
	iv := &Interval{
		opts:  opts,
		store: store,
		rt:    make(map[string]int),
		wt:    make(map[string]int),
		fin:   make(map[int]*span),
	}
	// The virtual transaction 0 owns the degenerate interval (0, 0]: it
	// precedes everything.
	iv.fin[0] = &span{lo: 0, hi: 0}
	return iv
}

// Name implements sched.Scheduler.
func (iv *Interval) Name() string { return "Interval" }

// Exhausted returns how many aborts were caused purely by interval
// fragmentation (the overlap existed order-wise but had no room left).
func (iv *Interval) Exhausted() int64 {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	return iv.exhausted
}

// Begin implements sched.Scheduler: every (re)start receives the full
// interval — the fixed-restart-range behaviour whose starvation the paper
// points out in Section VI-A item 4.
func (iv *Interval) Begin(txn int) {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	iv.txns.Begin(txn, span{lo: 0, hi: MaxTimestamp})
	delete(iv.fin, txn)
}

// spanOf returns the interval of a live or finished transaction (nil if
// it is neither).
func (iv *Interval) spanOf(txn int) *span {
	if st := iv.txns.Lookup(txn); st != nil {
		return &st.P
	}
	return iv.fin[txn]
}

// finish parks a live transaction's final interval in fin (rt/wt may
// name it) and ends the incarnation.
func (iv *Interval) finish(txn int) {
	if st := iv.txns.End(txn); st != nil {
		iv.fin[txn] = &st.P
	}
	iv.gc()
}

// before reports whether a's interval already lies entirely before b's.
func before(a, b *span) bool { return a.hi <= b.lo }

// encode shrinks the two intervals so that a precedes b, reporting
// success. policyC picks the split point within (max(lo), min(hi)).
func (iv *Interval) encode(a, b *span) bool {
	if a == b {
		return true
	}
	if before(a, b) {
		return true
	}
	if before(b, a) {
		return false // the reverse order is already committed to
	}
	lo := max(a.lo, b.lo)
	hi := min(a.hi, b.hi)
	if hi-lo < 2 { // no room for a strict split: fragmentation
		iv.exhausted++
		if iv.opts.NoCompact {
			return false
		}
		iv.compact()
		lo = max(a.lo, b.lo)
		hi = min(a.hi, b.hi)
		if hi-lo < 2 {
			return false
		}
	}
	var c int64
	switch iv.opts.Policy {
	case SplitLow:
		c = lo + 1
	case SplitHigh:
		c = hi - 1
	default:
		c = lo + (hi-lo)/2
	}
	a.hi = c
	if c > b.lo {
		b.lo = c
	}
	if a.lo >= a.hi || b.lo >= b.hi {
		// A degenerate interval can no longer order against anything new;
		// treat as exhaustion.
		iv.exhausted++
		return false
	}
	return true
}

// compact renumbers the timestamp space with an order-preserving
// bijection on interval endpoints: the k-th smallest endpoint maps to
// k·(MaxTimestamp/(n+1)). Overlaps stay overlaps and disjoint orders are
// preserved, so no established relation changes, but midpoint splits get
// fresh room. This is the extra maintenance interval-based schemes
// require; the paper's vectors avoid it entirely.
func (iv *Interval) compact() {
	iv.compactions++
	endpoints := map[int64]bool{}
	states := make([]*span, 0, len(iv.fin))
	iv.txns.Each(func(st *sched.Txn[span]) {
		states = append(states, &st.P)
	})
	for t, st := range iv.fin {
		if t == 0 {
			continue // the virtual (0,0] stays fixed
		}
		states = append(states, st)
	}
	for _, st := range states {
		endpoints[st.lo] = true
		endpoints[st.hi] = true
	}
	sorted := make([]int64, 0, len(endpoints))
	for e := range endpoints {
		sorted = append(sorted, e)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	span := MaxTimestamp / int64(len(sorted)+1)
	remap := make(map[int64]int64, len(sorted))
	for i, e := range sorted {
		v := int64(i+1) * span
		if e == 0 {
			v = 0 // endpoints at the virtual boundary stay put
		}
		remap[e] = v
	}
	for _, st := range states {
		st.lo = remap[st.lo]
		st.hi = remap[st.hi]
	}
}

// Compactions returns how many space renumberings have run.
func (iv *Interval) Compactions() int64 {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	return iv.compactions
}

// maxHolder picks RT(x) or WT(x) with the later interval (by lower bound).
func (iv *Interval) maxHolder(x string) int {
	r, w := iv.rt[x], iv.wt[x]
	if r == w {
		return r
	}
	if iv.spanOf(r).lo < iv.spanOf(w).lo {
		return w
	}
	return r
}

// Read implements sched.Scheduler.
func (iv *Interval) Read(txn int, item string) (int64, error) {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	st, v, err := iv.txns.Read(txn, item)
	if st == nil {
		return v, err
	}
	j := iv.maxHolder(item)
	if !iv.encode(iv.spanOf(j), &st.P) {
		return 0, sched.Abort(txn, j, "interval order violated")
	}
	iv.rt[item] = txn
	return iv.store.Get(item), nil
}

// Write implements sched.Scheduler (deferred validation at commit).
func (iv *Interval) Write(txn int, item string, v int64) error {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	return iv.txns.Write(txn, item, v)
}

// Commit implements sched.Scheduler. Success or failure, the final
// interval is kept while rt/wt may still reference it: a failed
// validation may already have named the transaction in wt.
func (iv *Interval) Commit(txn int) error {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	st, err := iv.txns.Get(txn)
	if err != nil {
		return err
	}
	for _, x := range st.Items() {
		j := iv.maxHolder(x)
		if !iv.encode(iv.spanOf(j), &st.P) {
			iv.finish(txn)
			return sched.Abort(txn, j, "interval order violated at commit")
		}
		iv.wt[x] = txn
	}
	st.Publish(iv.store)
	iv.finish(txn)
	return nil
}

// Abort implements sched.Scheduler. The shrunk interval stays visible
// through rt — conservative, like MT(k)'s aborted-reader residue.
func (iv *Interval) Abort(txn int) {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	iv.finish(txn)
}

// gc drops finished intervals no longer referenced by any rt/wt index.
func (iv *Interval) gc() {
	ref := map[int]bool{0: true}
	for _, t := range iv.rt {
		ref[t] = true
	}
	for _, t := range iv.wt {
		ref[t] = true
	}
	for t := range iv.fin {
		if !ref[t] {
			delete(iv.fin, t)
		}
	}
}

// Width returns the current interval width of a transaction (tests and
// the fragmentation experiment).
func (iv *Interval) Width(txn int) int64 {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	if st := iv.spanOf(txn); st != nil {
		return st.hi - st.lo
	}
	return 0
}
