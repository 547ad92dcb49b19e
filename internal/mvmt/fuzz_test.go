package mvmt

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/sched"
	"repro/internal/storage"
)

// Lifecycle fuzz: random read/write/commit/abort interleavings must never
// panic, never leak dirty data, and reads must never fail while versions
// are retained.
func TestFuzzMVMTLifecycle(t *testing.T) {
	items := []string{"a", "b", "c"}
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := storage.New()
		m := New(st, Options{K: 1 + rng.Intn(3), MaxVersions: 2 + rng.Intn(6)})
		type state struct {
			live   bool
			writes map[string]int64
		}
		txns := map[int]*state{}
		allCommitted := map[int64]bool{0: true} // every value ever published
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d panic: %v", seed, r)
				}
			}()
			for step := 0; step < 40; step++ {
				txn := 1 + rng.Intn(4)
				ts := txns[txn]
				if ts == nil || !ts.live {
					ts = &state{live: true, writes: map[string]int64{}}
					txns[txn] = ts
					m.Begin(txn)
				}
				switch rng.Intn(8) {
				case 0:
					err := m.Commit(txn)
					if err == nil {
						for _, v := range ts.writes {
							allCommitted[v] = true
						}
					} else if !errors.Is(err, sched.ErrAbort) {
						t.Fatalf("seed %d: non-abort commit error %v", seed, err)
					}
					ts.live = false
				case 1:
					m.Abort(txn)
					ts.live = false
				case 2, 3, 4:
					it := items[rng.Intn(len(items))]
					if _, err := m.Read(txn, it); err != nil && !errors.Is(err, sched.ErrAbort) {
						t.Fatalf("seed %d: read error %v", seed, err)
					}
				default:
					it := items[rng.Intn(len(items))]
					v := int64(txn*1000 + step)
					if err := m.Write(txn, it, v); err != nil {
						t.Fatalf("seed %d: buffered write failed: %v", seed, err)
					}
					ts.writes[it] = v
				}
			}
		}()
		// No dirty data: every store value must come from a successful
		// commit (a failed commit publishes nothing).
		for x, v := range st.Snapshot() {
			if !allCommitted[v] {
				t.Fatalf("seed %d: dirty value %d leaked into %s", seed, v, x)
			}
		}
	}
}
