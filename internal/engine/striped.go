package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/explore/hook"
	"repro/internal/intern"
	"repro/internal/oplog"
)

// Striped is the fine-grained-locking implementation of the MT(k)
// scheduler of Algorithm 1: decision-for-decision equivalent to
// Scheduler (the differential suite in internal/sched asserts this op
// by op), but safe for concurrent use, with operations on disjoint
// items from different transactions proceeding in parallel.
//
// The locking scheme follows the paper's own decentralized protocol
// (Section V), which serializes only per-object vector accesses via
// ordered locking, and the Section VI remark that vector operations on
// different items proceed concurrently:
//
//  1. a hash-striped per-item LatchTable serializes the two accesses
//     that conflict on an item — reading/updating RT(x), WT(x) and the
//     access counts — with multi-item acquisitions (a deferred commit's
//     validate-and-publish) taking stripes in ascending order;
//  2. a per-transaction lock guards each timestamp vector and its
//     pin/done lifecycle bits; every step locks the (at most three)
//     transactions it touches — RT(x), WT(x) and the operating
//     transaction — in ascending entry rank order (see lockTxns);
//  3. a counter lock guards the lcount/ucount pair and the per-column
//     clock, taken last, for the duration of a kernel encode.
//
// The hierarchy is strict (latches, then transaction locks, then the
// counter lock), so no acquisition order can deadlock. Each Set(j, i)
// runs entirely under the locks of both vectors it inspects and
// mutates, so dependency encoding stays atomic and Lemmas 1-2 (defined
// elements are never overwritten; '<' is a strict partial order) carry
// over unchanged: any concurrent execution is equivalent to some serial
// sequence of Set transitions, which is exactly the coarse scheduler's
// regime.
//
// Memory discipline (DESIGN.md §14): items are interned to dense int32
// ids, so RT/WT/access state lives in per-stripe slices indexed by
// id/nStripes instead of string maps; transaction entries live in a
// chunked, atomically published table indexed by txn id and are
// recycled through a sync.Pool. A steady-state step — intern hit,
// latch, three entry locks, decision, repin — allocates nothing; the
// alloc gate in CI (make alloc-gate) holds it at 0 allocs/op.
type Striped struct {
	opts  Options
	k     int
	names *intern.Table

	latches *core.LatchTable
	stripes []itemStripe
	smask   int  // stripe index mask (stripe count - 1)
	nshift  uint // log2(stripe count): id >> nshift is the in-stripe index

	// tmu serializes txn-table growth, slot publication and chunk
	// retirement (create is the only writer); lookups are lock-free
	// loads of the spine. tmu orders BEFORE the per-entry locks: create
	// initializes a pooled entry under its lock while holding tmu, and
	// no path acquires tmu while holding an entry lock (reclamation
	// clears slots with a CAS, not under tmu, precisely to keep this
	// acyclic).
	tmu   sync.Mutex
	spine atomic.Pointer[[]atomic.Pointer[txnChunk]]
	// held lists the spine indexes of the installed chunks; once it
	// reaches sweepAt, the next install first retires the empty ones.
	// Both are guarded by tmu.
	held    []int
	sweepAt int
	live    atomic.Int64  // published, unreclaimed entries (including T_0)
	pool    sync.Pool     // *txnEntry, vectors pre-sized to k
	ranks   atomic.Uint64 // entries allocated; the next entry's rank
	// staleRetries counts lock-set retries that hit a reclaimed or
	// recycled entry (the generation check); the pooled-reuse stress
	// test asserts every stale access is caught here.
	staleRetries atomic.Int64

	// cmu guards the counters, the column clock, and the reusable
	// encode sink.
	cmu      sync.Mutex
	counters *LocalCounters
	clock    []int64
	sink     stripedSink

	// OnDecision, when non-nil, observes every Step decision while the
	// operation's item latches are still held, so for any single item
	// the observed order is the true decision order. Set it before
	// traffic flows. Stress tests use it to build serialization graphs.
	OnDecision func(core.Decision)
}

// itemStripe is the per-stripe slice of the scheduler's item-indexed
// state, guarded by the latch with the same index. An item with id
// interned as n lives at index n >> nshift of stripe n & smask (the
// id space is dense, so stripes grow in lockstep with the item count);
// the slices are grown only under the stripe's latch.
type itemStripe struct {
	rt     []int
	wt     []int
	access []int64
}

// ensure grows the stripe's tables to cover in-stripe index li (caller
// holds the stripe latch).
func (st *itemStripe) ensure(li int) {
	for li >= len(st.rt) {
		st.rt = append(st.rt, 0)
		st.wt = append(st.wt, 0)
		st.access = append(st.access, 0)
	}
}

// txnChunk is one fixed block of the transaction table. Chunks never
// move once published, so a slot pointer read is one atomic load. A
// chunk whose slots are all empty is retired (see retireChunks), so the
// table's memory follows the ids still holding vectors, not every id
// ever begun: txn ids only grow in a long run.
const (
	txnChunkBits = 8
	txnChunkSize = 1 << txnChunkBits
	txnChunkMask = txnChunkSize - 1
	// minSweep is the installed-chunk count below which no retirement
	// sweep runs: a workload whose ids stay within minSweep chunks
	// (16,384 ids) never sweeps, so never reallocates a chunk.
	minSweep = 64
)

type txnChunk struct {
	slots [txnChunkSize]atomic.Pointer[txnEntry]
	// used counts the filled slots. create raises it under tmu after
	// filling an empty slot and maybeReclaim lowers it after emptying
	// one, so it never reads below the true count: zero read under tmu
	// means every slot is empty.
	used atomic.Int32
}

// txnEntry is one transaction's vector plus lifecycle state, guarded by
// its own lock. Entries are pooled: reclamation marks the entry dead
// and returns it to the pool, and the next create re-tags it with a new
// id and bumps gen. A looker that locked a stale pointer detects the
// recycle because (id, dead) no longer match what it asked for.
type txnEntry struct {
	mu   sync.Mutex
	rank uint64      // fixed at allocation; lockTxns locks in rank order
	id   int         // current identity; valid while published
	gen  uint64      // incremented on every recycle (diagnostics, tests)
	dead atomic.Bool // set on reclaim; readable without the entry lock
	vec  *core.Vector
	pins int
	done bool
}

// lockedTxns is the fixed-capacity result of lockTxns: at most three
// distinct entries — RT(x), WT(x) and the acting transaction — locked
// in ascending rank order. It lives on the caller's stack, so the
// steady-state step path allocates nothing.
type lockedTxns struct {
	ids [3]int
	es  [3]*txnEntry
	n   int
}

// get returns the locked entry for id (which must be one of the locked
// ids).
func (lt *lockedTxns) get(id int) *txnEntry {
	if lt.ids[0] == id {
		return lt.es[0]
	}
	if lt.n > 1 && lt.ids[1] == id {
		return lt.es[1]
	}
	return lt.es[2]
}

// unlock releases the locked entries in reverse locking order.
func (lt *lockedTxns) unlock() {
	for j := lt.n - 1; j >= 0; j-- {
		lt.es[j].mu.Unlock()
	}
}

// DefaultStripes is the latch-table width used by NewStriped.
const DefaultStripes = 128

// NewStriped returns a concurrent MT(k) scheduler with the default
// stripe count. Options are interpreted exactly as by NewScheduler.
func NewStriped(opts Options) *Striped {
	return NewStripedSize(opts, DefaultStripes)
}

// NewStripedSize returns a concurrent MT(k) scheduler with at least
// nStripes latch stripes and its own item-intern table.
func NewStripedSize(opts Options, nStripes int) *Striped {
	return newStriped(opts, nStripes, intern.New())
}

// NewStripedInterned returns a concurrent MT(k) scheduler that shares
// the given intern table (typically the backing store's, so scheduler
// and store agree on item ids and the runtime adapter can run the
// id-indexed fast path end to end).
func NewStripedInterned(opts Options, names *intern.Table) *Striped {
	return newStriped(opts, DefaultStripes, names)
}

func newStriped(opts Options, nStripes int, names *intern.Table) *Striped {
	if opts.K < 1 {
		panic("engine: Options.K must be >= 1")
	}
	s := &Striped{
		opts:     opts,
		k:        opts.K,
		names:    names,
		latches:  core.NewLatchTable(nStripes),
		counters: NewLocalCounters(),
		clock:    make([]int64, opts.K),
	}
	s.latches.BindInterner(names)
	s.stripes = make([]itemStripe, s.latches.Stripes())
	s.smask = s.latches.Stripes() - 1
	for 1<<s.nshift < s.latches.Stripes() {
		s.nshift++
	}
	k := opts.K
	s.pool.New = func() any { return &txnEntry{rank: s.ranks.Add(1), vec: core.NewVector(k)} }
	// TS(0) = <0,*,...,*>: the virtual transaction T_0.
	t0 := s.entry(0)
	t0.vec.SetElem(1, 0)
	return s
}

// K returns the vector size.
func (s *Striped) K() int { return s.k }

// Latches exposes the latch table so the runtime adapter can hold an
// operation's item latches across the protocol step AND the data
// access it orders (the atomicity the coarse adapter gets from its
// global mutex).
func (s *Striped) Latches() *core.LatchTable { return s.latches }

// Interner exposes the item-intern table backing this scheduler.
func (s *Striped) Interner() *intern.Table { return s.names }

// ItemID interns item and returns its dense id (the key for the *ID
// fast-path methods; also a valid index into the shared store when the
// scheduler was built with NewStripedInterned).
func (s *Striped) ItemID(item string) int32 { return s.names.ID(item) }

// StaleRetries returns how many lock-set acquisitions found a
// reclaimed or recycled entry and retried (the pooled-entry generation
// check; test observability).
func (s *Striped) StaleRetries() int64 { return s.staleRetries.Load() }

// lookup returns the published entry for id, or nil. Lock-free.
func (s *Striped) lookup(id int) *txnEntry {
	sp := s.spine.Load()
	if sp == nil {
		return nil
	}
	hi := id >> txnChunkBits
	if hi >= len(*sp) {
		return nil
	}
	ch := (*sp)[hi].Load()
	if ch == nil {
		return nil
	}
	return ch.slots[id&txnChunkMask].Load()
}

// entry returns the live entry for id, creating (or recycling from the
// pool) one on demand.
func (s *Striped) entry(id int) *txnEntry {
	if e := s.lookup(id); e != nil && !e.dead.Load() {
		return e
	}
	return s.create(id)
}

// create publishes an entry for id under tmu.
func (s *Striped) create(id int) *txnEntry {
	if id < 0 {
		panic("engine: negative transaction id")
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	ch := s.chunk(id >> txnChunkBits)
	slot := &ch.slots[id&txnChunkMask]
	if e := slot.Load(); e != nil && !e.dead.Load() {
		return e
	}
	e := s.pool.Get().(*txnEntry)
	// Initialize under the entry lock: a straggler holding a stale
	// pointer from the entry's previous identity may lock it and read
	// (id, dead) at any moment. If the previous identity is still
	// mid-reclaim, Get returned before that op's unlock and this block
	// waits for it — reclamation never acquires tmu, so holding it here
	// cannot deadlock.
	e.mu.Lock()
	e.id = id
	e.gen++
	e.dead.Store(false)
	e.done = false
	e.pins = 0
	e.vec.Reset()
	e.mu.Unlock()
	// The slot may still hold a dead entry whose reclaimer has not
	// cleared it yet; that reclaimer's CAS then fails, so only a slot
	// that was empty counts as newly used.
	if slot.Swap(e) == nil {
		ch.used.Add(1)
	}
	s.live.Add(1)
	return e
}

// chunk returns chunk hi of the transaction table, installing it if
// absent. The spine is copy-on-write for growth, which doubles it, so
// lock-free lookups only ever index a slice that is never resized; its
// elements are atomic, so installing or retiring a chunk copies
// nothing. The caller holds tmu.
func (s *Striped) chunk(hi int) *txnChunk {
	var chunks []atomic.Pointer[txnChunk]
	if sp := s.spine.Load(); sp != nil {
		chunks = *sp
	}
	if hi >= len(chunks) {
		grown := make([]atomic.Pointer[txnChunk], max(hi+1, 2*len(chunks)))
		for i := range chunks {
			grown[i].Store(chunks[i].Load())
		}
		s.spine.Store(&grown)
		chunks = grown
	}
	if ch := chunks[hi].Load(); ch != nil {
		return ch
	}
	if len(s.held) >= max(s.sweepAt, minSweep) {
		s.retireChunks(chunks)
	}
	ch := &txnChunk{}
	chunks[hi].Store(ch)
	s.held = append(s.held, hi)
	return ch
}

// retireChunks removes the installed chunks whose slots are all empty.
// A lookup still holding a retired chunk finds every slot empty, which
// is what the table answers for those ids anyway, and create installs
// a fresh chunk for an id that comes back. The sweep runs once the
// installed chunks have doubled since the last one, so its cost per
// installed chunk is constant. The caller holds tmu.
func (s *Striped) retireChunks(chunks []atomic.Pointer[txnChunk]) {
	kept := s.held[:0]
	for _, hi := range s.held {
		if chunks[hi].Load().used.Load() == 0 {
			chunks[hi].Store(nil)
		} else {
			kept = append(kept, hi)
		}
	}
	s.held = kept
	s.sweepAt = 2 * len(kept)
}

// lockTxns locks the entries for ids[:n] (ids are deduplicated here),
// retrying when an entry was reclaimed or recycled between lookup and
// lock — detected by the (id, dead) generation check, since a pooled
// entry that was re-published for a different transaction no longer
// carries the id it was looked up under. The locks are taken in rank
// order, not id order: a stale lookup can hand back an entry already
// recycled under another id, and under an id order two lockers could
// then each hold one entry while waiting for the other. A rank never
// changes, so every multi-entry lock follows one total order. The
// result lives in the caller-provided lockedTxns.
func (s *Striped) lockTxns(lt *lockedTxns, ids [3]int, n int) {
	if n > 1 && ids[0] > ids[1] {
		ids[0], ids[1] = ids[1], ids[0]
	}
	if n == 3 {
		if ids[1] > ids[2] {
			ids[1], ids[2] = ids[2], ids[1]
		}
		if ids[0] > ids[1] {
			ids[0], ids[1] = ids[1], ids[0]
		}
	}
	m := 0
	for i := 0; i < n; i++ {
		if m == 0 || ids[i] != lt.ids[m-1] {
			lt.ids[m] = ids[i]
			m++
		}
	}
retry:
	for {
		for i := 0; i < m; i++ {
			lt.es[i] = s.entry(lt.ids[i])
		}
		for i := 1; i < m; i++ {
			for j := i; j > 0 && lt.es[j].rank < lt.es[j-1].rank; j-- {
				lt.es[j], lt.es[j-1] = lt.es[j-1], lt.es[j]
				lt.ids[j], lt.ids[j-1] = lt.ids[j-1], lt.ids[j]
			}
		}
		for i := 0; i < m; i++ {
			e := lt.es[i]
			if i > 0 && e == lt.es[i-1] {
				// Two ids looked up one entry: at least one lookup is
				// stale, and locking it twice would self-deadlock.
				s.staleRetries.Add(1)
				for j := i - 1; j >= 0; j-- {
					lt.es[j].mu.Unlock()
				}
				continue retry
			}
			e.mu.Lock()
			if e.dead.Load() || e.id != lt.ids[i] {
				s.staleRetries.Add(1)
				for j := i; j >= 0; j-- {
					lt.es[j].mu.Unlock()
				}
				continue retry
			}
		}
		lt.n = m
		return
	}
}

// Step schedules one atomic operation, acquiring the items' latches
// itself. Multi-item operations process their items in order; the
// first rejecting item rejects the whole operation.
func (s *Striped) Step(op oplog.Op) core.Decision {
	unlock := s.latches.Lock(op.Items...)
	defer unlock()
	return s.StepLocked(op)
}

// StepLocked is Step for callers that already hold the latches
// covering op.Items (the runtime adapter, which keeps them held across
// the subsequent data access).
func (s *Striped) StepLocked(op oplog.Op) core.Decision {
	var ignored []string
	d := core.Decision{Op: op, Verdict: core.Accept}
	for _, x := range op.Items {
		v, blocker := s.stepItem(op.Txn, s.names.ID(x), op.Kind == oplog.Read)
		if v == core.Reject {
			d = core.Decision{Op: op, Verdict: core.Reject, Blocker: blocker, Item: x}
			hook.Observe("engine.decision", x, int64(op.Txn), int64(v))
			if s.OnDecision != nil {
				s.OnDecision(d)
			}
			return d
		}
		if v == core.AcceptIgnored {
			ignored = append(ignored, x)
		}
	}
	if len(ignored) == len(op.Items) {
		d.Verdict = core.AcceptIgnored
	}
	d.IgnoredItems = ignored
	if len(op.Items) > 0 {
		hook.Observe("engine.decision", op.Items[0], int64(op.Txn), int64(d.Verdict))
	}
	if s.OnDecision != nil {
		s.OnDecision(d)
	}
	return d
}

// StepReadID runs the read arm of Algorithm 1 for one interned item,
// with the item's latch held by the caller: the single-item fast path
// of StepLocked(oplog.R(txn, item)) with identical decision,
// observation and OnDecision behavior, but no Op construction —
// allocation-free on the steady path.
func (s *Striped) StepReadID(txn int, id int32) (core.Verdict, int) {
	v, blocker := s.stepItem(txn, id, true)
	s.observe(txn, id, oplog.Read, v, blocker)
	return v, blocker
}

// StepWriteID is the write-arm analogue of StepReadID.
func (s *Striped) StepWriteID(txn int, id int32) (core.Verdict, int) {
	v, blocker := s.stepItem(txn, id, false)
	s.observe(txn, id, oplog.Write, v, blocker)
	return v, blocker
}

// observe emits the decision exactly as StepLocked would for the
// single-item op: the explore-harness stamp first (the parity oracle's
// linearization point, still under the item latch), then OnDecision.
// The Decision value is only materialized when someone is listening.
func (s *Striped) observe(txn int, id int32, kind oplog.Kind, v core.Verdict, blocker int) {
	if hook.Enabled() {
		hook.Observe("engine.decision", s.names.Name(id), int64(txn), int64(v))
	}
	if s.OnDecision != nil {
		x := s.names.Name(id)
		d := core.Decision{
			Op:      oplog.Op{Txn: txn, Kind: kind, Items: []string{x}},
			Verdict: v,
		}
		switch v {
		case core.Reject:
			d.Blocker = blocker
			d.Item = x
		case core.AcceptIgnored:
			d.IgnoredItems = d.Op.Items
		}
		s.OnDecision(d)
	}
}

// stepItem runs the read or write arm of Algorithm 1 for one item,
// with the item's latch held by the caller. It locks the (at most
// three) transactions involved, makes the decision, and updates the
// RT/WT indexes and pin counts before releasing them.
func (s *Striped) stepItem(i int, id int32, read bool) (core.Verdict, int) {
	st := &s.stripes[int(uint32(id))&s.smask]
	li := int(id) >> s.nshift
	st.ensure(li)
	st.access[li]++
	rt, wt := st.rt[li], st.wt[li]
	var lt lockedTxns
	s.lockTxns(&lt, [3]int{rt, wt, i}, 3)
	defer lt.unlock()
	ei := lt.get(i)
	// A transaction issuing operations is live: a restarted incarnation
	// after Abort reactivates its (possibly reseeded) vector.
	ei.done = false
	// maxHolder: j := RT(x) or WT(x), whichever timestamp is larger.
	j, ej := rt, lt.get(rt)
	if rt != wt && s.vecLess(lt.get(rt).vec, lt.get(wt).vec) {
		j, ej = wt, lt.get(wt)
	}
	shift := s.hotID(st, li, id)
	if read {
		if s.setDep(j, i, ej, ei, shift) {
			s.repin(st.rt, li, i, &lt)
			return core.Accept, 0
		}
		// Line 9: the read may slot between the most recent write and
		// the most recent read without becoming the most recent reader.
		if j == rt {
			if s.opts.RelaxedReadCheck {
				if s.setDep(wt, i, lt.get(wt), ei, shift) {
					return core.Accept, 0
				}
			} else if wt != i && s.vecLess(lt.get(wt).vec, ei.vec) {
				return core.Accept, 0
			}
		}
		return core.Reject, j
	}
	if s.setDep(j, i, ej, ei, shift) {
		s.repin(st.wt, li, i, &lt)
		return core.Accept, 0
	}
	// Thomas write rule: if TS(RT(x)) < TS(i) < TS(WT(x)), the write is
	// obsolete and can be ignored.
	if s.opts.ThomasWriteRule && j == wt && i != wt && s.vecLess(ei.vec, lt.get(wt).vec) &&
		s.setDep(rt, i, lt.get(rt), ei, shift) {
		return core.AcceptIgnored, 0
	}
	return core.Reject, j
}

// vecLess reports a < b established, mirroring VectorTable.Less for
// already-locked vectors.
func (s *Striped) vecLess(a, b *core.Vector) bool {
	if a == b {
		return false
	}
	return a.Less(b)
}

// hotID reports whether the item qualifies for right-shifted encoding.
// The caller holds the item's latch (access counts live under it).
func (s *Striped) hotID(st *itemStripe, li int, id int32) bool {
	if len(s.opts.HotItems) > 0 && s.opts.HotItems[s.names.Name(id)] {
		return true
	}
	return s.opts.HotThreshold > 0 && int(st.access[li]) >= s.opts.HotThreshold
}

// setDep is procedure Set(j, i) with both entries locked; shift is the
// item's hot-encoding eligibility (precomputed under its latch).
func (s *Striped) setDep(j, i int, ej, ei *txnEntry, shift bool) bool {
	if j == i {
		return true
	}
	rel, _ := ej.vec.Compare(ei.vec)
	if rel == core.Greater {
		return false
	}
	if rel == core.Less {
		if s.opts.Trace != nil {
			s.opts.Trace(core.Event{Kind: core.EvEstablished, J: j, I: i})
		}
		return true
	}
	if !s.encode(j, i, ej, ei, shift) {
		return false
	}
	if s.opts.Trace != nil {
		s.opts.Trace(core.Event{Kind: core.EvEncode, J: j, I: i})
	}
	return true
}

// assign sets element pos of id's (locked) vector and advances the
// column clock. The caller holds cmu.
func (s *Striped) assign(id int, e *txnEntry, pos int, val int64) {
	e.vec.SetElem(pos, val)
	if val > s.clock[pos-1] {
		s.clock[pos-1] = val
	}
	if s.opts.Trace != nil {
		s.opts.Trace(core.Event{Kind: core.EvAssign, Txn: id, Pos: pos, Val: val})
	}
}

// upper returns the value for a fresh "greater" element in column m
// (cmu held), mirroring VectorTable.upper.
func (s *Striped) upper(m int, floor int64) int64 {
	v := floor + 1
	if s.opts.MonotonicEncoding && s.clock[m-1]+1 > v {
		v = s.clock[m-1] + 1
	}
	return v
}

// stripedSink routes kernel assignments into the locked entries,
// advancing the clock and the trace hook. The encode holds cmu, which
// also guards the scheduler's single reusable sink value: passing its
// address avoids re-boxing a fresh Sink interface per encode.
type stripedSink struct {
	s      *Striped
	j, i   int
	ej, ei *txnEntry
}

func (k *stripedSink) Assign(side Side, pos int, val int64) {
	if side == SideJ {
		k.s.assign(k.j, k.ej, pos, val)
	} else {
		k.s.assign(k.i, k.ei, pos, val)
	}
}

func (k *stripedSink) Upper(m int, floor int64) int64 { return k.s.upper(m, floor) }

// encode runs the kernel's Set(j, i) over the two locked entries. The
// element assignments and counter allocations run under cmu so the
// lcount/ucount interaction stays atomic.
func (s *Striped) encode(j, i int, ej, ei *txnEntry, shift bool) bool {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	s.sink = stripedSink{s: s, j: j, i: i, ej: ej, ei: ei}
	return Dep{
		J: j, I: i,
		VJ: ej.vec, VI: ei.vec,
		K:     s.k,
		Alloc: s.counters,
		Sink:  &s.sink,
		Shift: shift,
	}.Encode()
}

// repin moves the RT or WT index for the item (table[li], where table
// is the stripe's rt or wt slice) to txn, maintaining pin counts. The
// old holder is always among the locked entries (it was rt/wt when the
// step locked them).
func (s *Striped) repin(table []int, li int, txn int, lt *lockedTxns) {
	old := table[li]
	if old == txn {
		return
	}
	table[li] = txn
	lt.get(txn).pins++
	if old == 0 {
		return
	}
	eo := lt.get(old)
	eo.pins--
	s.maybeReclaim(old, eo)
}

// maybeReclaim recycles the entry once the transaction is finished and
// no longer a most-recent read/write timestamp. The caller holds e.mu.
// The published slot is cleared with a CAS (not under tmu — see the
// tmu comment) and the entry goes back to the pool; it may be locked
// by a recycler before the caller unlocks it, which is safe because
// create initializes entries under their lock.
func (s *Striped) maybeReclaim(id int, e *txnEntry) {
	if id == 0 {
		return
	}
	if e.done && (e.pins <= 0 || s.opts.UnsafeEagerReclaim) && !e.dead.Load() {
		e.dead.Store(true)
		e.gen++
		if sp := s.spine.Load(); sp != nil {
			hi := id >> txnChunkBits
			if hi < len(*sp) {
				if ch := (*sp)[hi].Load(); ch != nil && ch.slots[id&txnChunkMask].CompareAndSwap(e, nil) {
					ch.used.Add(-1)
				}
			}
		}
		s.live.Add(-1)
		s.pool.Put(e)
	}
}

// Commit marks transaction i finished; its vector storage is reclaimed
// as soon as it stops being a most-recent read/write timestamp.
func (s *Striped) Commit(i int) {
	var lt lockedTxns
	s.lockTxns(&lt, [3]int{i, 0, 0}, 1)
	defer lt.unlock()
	e := lt.get(i)
	e.done = true
	s.maybeReclaim(i, e)
}

// Abort discards transaction i; blocker is the Blocker of the
// rejecting Decision (0 for other causes). With StarvationAvoidance
// the vector is flushed and reseeded past the blocker, exactly as in
// Scheduler.Abort.
func (s *Striped) Abort(i, blocker int) {
	if i == 0 {
		return
	}
	if s.opts.StarvationAvoidance && blocker != 0 {
		var lt lockedTxns
		s.lockTxns(&lt, [3]int{i, blocker, 0}, 2)
		b := lt.get(blocker).vec.Elem(1)
		if b.Defined {
			seed := s.reseedFirst(i, lt.get(i), b.V)
			lt.unlock()
			if s.opts.Trace != nil {
				s.opts.Trace(core.Event{Kind: core.EvFlush, Txn: i, Val: seed})
			}
			return
		}
		e := lt.get(i)
		e.done = true
		s.maybeReclaim(i, e)
		lt.unlock()
		return
	}
	var lt lockedTxns
	s.lockTxns(&lt, [3]int{i, 0, 0}, 1)
	defer lt.unlock()
	e := lt.get(i)
	e.done = true
	s.maybeReclaim(i, e)
}

// reseedFirst mirrors VectorTable.ReseedFirst under the entry lock.
func (s *Striped) reseedFirst(i int, e *txnEntry, floor int64) int64 {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	seed := floor + 1
	if c := s.clock[0] + 1; c > seed {
		seed = c
	}
	if s.k == 1 {
		seed = s.counters.ReserveAtLeast(seed)
	}
	e.vec.Reset()
	s.assign(i, e, 1, seed)
	return seed
}

// wtOf returns WT for an interned item id, 0 when the item has no
// state yet. Caller holds the item's latch.
func (s *Striped) wtOf(id int32) int {
	st := &s.stripes[int(uint32(id))&s.smask]
	li := int(id) >> s.nshift
	if li >= len(st.wt) {
		return 0
	}
	return st.wt[li]
}

// ReadPendingWriter supports the runtime adapter's immediate-mode
// check ("read ordered after uncommitted writer"): with x's latch HELD
// by the caller, it reports whether x's most recent writer w (≠ i) is
// live per the callback and TS(i) < TS(w) is NOT established — the
// lost-update window the adapter must abort. The callback must not
// call back into this scheduler.
func (s *Striped) ReadPendingWriter(i int, x string, live func(int) bool) (blocker int, conflict bool) {
	return s.ReadPendingWriterID(i, s.names.ID(x), live)
}

// ReadPendingWriterID is ReadPendingWriter keyed by interned item id.
func (s *Striped) ReadPendingWriterID(i int, id int32, live func(int) bool) (blocker int, conflict bool) {
	w := s.wtOf(id)
	if w == i || !live(w) {
		return 0, false
	}
	var lt lockedTxns
	s.lockTxns(&lt, [3]int{i, w, 0}, 2)
	defer lt.unlock()
	if !s.vecLess(lt.get(i).vec, lt.get(w).vec) {
		return w, true
	}
	return 0, false
}

// WritePendingWriter supports the runtime adapter's immediate-mode
// write guard: with x's latch HELD by the caller, it reports whether
// x's most recent writer w (≠ i) is still live per the callback. Two
// uncommitted accepted writes on one item are unpublishable under the
// publish-at-commit discipline — whichever commit order occurs, one of
// the two inverts the decided write order — so the adapter aborts the
// second writer regardless of how the vectors compare. The callback
// must not call back into this scheduler.
func (s *Striped) WritePendingWriter(i int, x string, live func(int) bool) (blocker int, conflict bool) {
	return s.WritePendingWriterID(i, s.names.ID(x), live)
}

// WritePendingWriterID is WritePendingWriter keyed by interned item id.
func (s *Striped) WritePendingWriterID(i int, id int32, live func(int) bool) (blocker int, conflict bool) {
	w := s.wtOf(id)
	if w == 0 || w == i || !live(w) {
		return 0, false
	}
	return w, true
}

// Vector returns a copy of TS(i). Unknown transactions have the
// all-undefined vector.
func (s *Striped) Vector(i int) *core.Vector {
	var lt lockedTxns
	s.lockTxns(&lt, [3]int{i, 0, 0}, 1)
	defer lt.unlock()
	return lt.get(i).vec.Clone()
}

// RT returns RT(x) (0 if none), taking x's latch. Diagnostics only —
// callers already holding the latch must not use it.
func (s *Striped) RT(x string) int {
	id := s.names.ID(x)
	i := s.latches.StripeOfID(id)
	s.latches.LockStripe(i)
	defer s.latches.UnlockStripe(i)
	st := &s.stripes[int(uint32(id))&s.smask]
	li := int(id) >> s.nshift
	if li >= len(st.rt) {
		return 0
	}
	return st.rt[li]
}

// WT returns WT(x) (0 if none), taking x's latch. Diagnostics only.
func (s *Striped) WT(x string) int {
	id := s.names.ID(x)
	i := s.latches.StripeOfID(id)
	s.latches.LockStripe(i)
	defer s.latches.UnlockStripe(i)
	return s.wtOf(id)
}

// Counters returns the current (lcount, ucount) pair.
func (s *Striped) Counters() (lo, hi int64) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.counters.Counters()
}

// SeedCounters raises the counters to at least the given consumption
// watermarks in one atomic clamp; it is RaiseWatermarks under its
// historical name (the striped analogue of the coarse adapter's
// read-modify-write under its global mutex).
func (s *Striped) SeedCounters(lo, hi int64) { s.RaiseWatermarks(lo, hi) }

// Watermarks returns the monotone counter-consumption watermarks the
// WAL journals.
func (s *Striped) Watermarks() (lo, hi int64) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.counters.Watermarks()
}

// RaiseWatermarks lifts the counters to at least the given watermarks
// (recovery seeding) in one atomic raise-only clamp.
func (s *Striped) RaiseWatermarks(lo, hi int64) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	s.counters.Raise(lo, hi)
}

// LiveVectors returns the number of vectors currently held (including
// T_0), for storage-reclamation tests.
func (s *Striped) LiveVectors() int { return int(s.live.Load()) }

// Snapshot returns copies of all live timestamp vectors keyed by
// transaction id. Entries are locked one at a time, so the result is
// per-vector consistent; quiesce the scheduler for a global snapshot.
func (s *Striped) Snapshot() map[int]*core.Vector {
	out := make(map[int]*core.Vector)
	sp := s.spine.Load()
	if sp == nil {
		return out
	}
	for hi := range *sp {
		ch := (*sp)[hi].Load()
		if ch == nil {
			continue
		}
		for lo := range ch.slots {
			e := ch.slots[lo].Load()
			if e == nil {
				continue
			}
			want := hi<<txnChunkBits | lo
			e.mu.Lock()
			if !e.dead.Load() && e.id == want {
				out[want] = e.vec.Clone()
			}
			e.mu.Unlock()
		}
	}
	return out
}
