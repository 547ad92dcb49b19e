package engine

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
)

// installed returns the number of chunks the spine holds and checks
// that it matches the held list (caller runs single-threaded).
func installed(t *testing.T, s *Striped) int {
	t.Helper()
	n := 0
	if sp := s.spine.Load(); sp != nil {
		for hi := range *sp {
			if (*sp)[hi].Load() != nil {
				n++
			}
		}
	}
	if n != len(s.held) {
		t.Fatalf("spine holds %d chunks, held list %d", n, len(s.held))
	}
	return n
}

// A long serial run with ever-growing txn ids keeps only the chunks
// that still hold vectors: the table stays bounded by minSweep chunks
// instead of growing with every id begun, and an id that comes back
// into a retired chunk gets a fresh entry.
func TestTxnTableRetiresEmptyChunks(t *testing.T) {
	s := NewStriped(Options{K: 3, StarvationAvoidance: true})
	lt := s.Latches()
	items := make([]int32, 8)
	for i := range items {
		items[i] = s.ItemID(string(rune('a' + i)))
	}
	const txns = 200 * txnChunkSize
	for txn := 1; txn <= txns; txn++ {
		id := items[txn%len(items)]
		stripe := lt.StripeOfID(id)
		lt.LockStripe(stripe)
		v, blocker := s.StepReadID(txn, id)
		if v == core.Accept {
			v, blocker = s.StepWriteID(txn, id)
		}
		lt.UnlockStripe(stripe)
		if v == core.Reject {
			s.Abort(txn, blocker)
		}
		s.Commit(txn)
		if n := installed(t, s); n > minSweep {
			t.Fatalf("txn %d: %d chunks installed, want at most %d", txn, n, minSweep)
		}
	}
	if s.sweepAt == 0 {
		t.Fatal("no retirement sweep ran")
	}
	if sp := s.spine.Load(); (*sp)[1].Load() != nil {
		t.Fatal("chunk 1 still installed after its ids finished")
	}
	// An id of a retired chunk begins again.
	old := txnChunkSize + 5
	id := items[0]
	stripe := lt.StripeOfID(id)
	lt.LockStripe(stripe)
	v, _ := s.StepReadID(old, id)
	lt.UnlockStripe(stripe)
	if v != core.Accept {
		t.Fatalf("returning id %d: read %v", old, v)
	}
	if e := s.lookup(old); e == nil || e.dead.Load() || e.id != old {
		t.Fatalf("returning id %d: entry %+v", old, e)
	}
	if got, snap := s.LiveVectors(), s.Snapshot(); got != len(snap) {
		t.Fatalf("live counter %d != published entries %d", got, len(snap))
	}
}

// Retirement under concurrency: workers run txns from a window of ids
// that slides upward, so chunks are installed, emptied and retired
// while other workers look entries up, lock them and reclaim them.
// Under -race this checks that a retired chunk is never one a live
// entry sits in: the live counter must match the published entries,
// and every published entry must be reachable by its id.
func TestTxnTableRetirementStress(t *testing.T) {
	s := NewStriped(Options{K: 3, StarvationAvoidance: true})
	lt := s.Latches()
	items := make([]int32, 8)
	for i := range items {
		items[i] = s.ItemID(string(rune('a' + i)))
	}
	const (
		workers = 4
		iters   = 6000
		window  = 64
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + g)))
			for i := 0; i < iters; i++ {
				txn := 1 + 4*i + rng.Intn(window)
				id := items[rng.Intn(len(items))]
				stripe := lt.StripeOfID(id)
				lt.LockStripe(stripe)
				var v core.Verdict
				var blocker int
				if rng.Intn(2) == 0 {
					v, blocker = s.StepReadID(txn, id)
				} else {
					v, blocker = s.StepWriteID(txn, id)
				}
				lt.UnlockStripe(stripe)
				if v == core.Reject {
					s.Abort(txn, blocker)
				}
				s.Commit(txn)
				if rng.Intn(4) == 0 {
					_ = s.Vector(txn)
				}
			}
		}(g)
	}
	wg.Wait()

	if s.sweepAt == 0 {
		t.Fatal("no retirement sweep ran")
	}
	snap := s.Snapshot()
	if got := s.LiveVectors(); got != len(snap) {
		t.Fatalf("live counter %d != published entries %d", got, len(snap))
	}
	for txn := range snap {
		if e := s.lookup(txn); e == nil || e.id != txn {
			t.Fatalf("published entry %d not reachable by its id", txn)
		}
	}
	installed(t, s)
}
