package storage

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestGetSetApply(t *testing.T) {
	s := New()
	if s.Get("x") != 0 {
		t.Fatal("fresh item not 0")
	}
	s.Set("x", 7)
	if s.Get("x") != 7 {
		t.Fatal("Set not visible")
	}
	v0 := s.Version()
	s.ApplyTxn(1, map[string]int64{"x": 1, "y": 2})
	if s.Get("x") != 1 || s.Get("y") != 2 {
		t.Fatal("Apply not visible")
	}
	if s.Version() != v0+1 {
		t.Fatalf("version = %d, want %d", s.Version(), v0+1)
	}
}

func TestGetManySnapshotSum(t *testing.T) {
	s := New()
	s.ApplyTxn(1, map[string]int64{"a": 1, "b": 2, "c": 3})
	m := s.GetMany([]string{"a", "c", "zz"})
	if m["a"] != 1 || m["c"] != 3 || m["zz"] != 0 {
		t.Fatalf("GetMany = %v", m)
	}
	if got := s.Sum([]string{"a", "b", "c"}); got != 6 {
		t.Fatalf("Sum = %d", got)
	}
	snap := s.Snapshot()
	s.Set("a", 100)
	if snap["a"] != 1 {
		t.Fatal("Snapshot aliases store")
	}
}

func TestConcurrentApply(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.ApplyTxn(w+1, map[string]int64{"x": int64(w)})
				s.Get("x")
				s.Sum([]string{"x"})
			}
		}(w)
	}
	wg.Wait()
	if s.Version() != 800 {
		t.Fatalf("version = %d, want 800", s.Version())
	}
}

// TestJournalOrderMatchesItemVersions hammers ApplyTxn from many
// goroutines and asserts the property WAL replay rests on: for every
// item, the journal delivers that item's versions in strictly
// ascending contiguous order (the batch holds its shard locks across
// the journal call), and the global batch versions are contiguous.
func TestJournalOrderMatchesItemVersions(t *testing.T) {
	s := New()
	var mu sync.Mutex
	lastItemVer := make(map[string]int64)
	var lastVersion int64
	var violations []string
	s.SetJournal(func(ev ApplyEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Version != lastVersion+1 {
			violations = append(violations, "global version gap")
		}
		lastVersion = ev.Version
		for x, v := range ev.Vers {
			if v != lastItemVer[x]+1 {
				violations = append(violations, "item version out of order: "+x)
			}
			lastItemVer[x] = v
		}
	})
	items := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				batch := map[string]int64{
					items[(w+i)%len(items)]:   int64(i),
					items[(w+i+3)%len(items)]: int64(i),
				}
				s.ApplyTxn(w, batch)
			}
		}(w)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(violations) > 0 {
		t.Fatalf("%d ordering violations, first: %s", len(violations), violations[0])
	}
	if lastVersion != 8*200 {
		t.Fatalf("journal saw %d batches, want %d", lastVersion, 8*200)
	}
	for x, v := range lastItemVer {
		if got := s.ItemVersion(x); got != v {
			t.Fatalf("item %s: store version %d, journal high-water %d", x, got, v)
		}
	}
}

// TestConcurrentReadersAndCommits mixes Get/GetMany/Snapshot/State/Sum
// with committing batches across shards; -race plus the State
// consistency check (version must equal the number of batches the
// journal delivered) guard the sharded locking.
func TestConcurrentReadersAndCommits(t *testing.T) {
	s := New()
	items := make([]string, 32)
	for i := range items {
		items[i] = fmt.Sprintf("it%02d", i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Get(items[(w*5+i)%len(items)])
				if i%7 == 0 {
					s.GetMany(items[:4])
				}
				if i%13 == 0 {
					st := s.State()
					if int64(len(st.ItemVers)) > st.Version*2 {
						t.Error("state invariant broken: more item versions than 2x batches")
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				s.ApplyTxn(w, map[string]int64{
					items[(w+i)%len(items)]:   int64(i),
					items[(w*3+i)%len(items)]: int64(i),
					items[(w*7+i)%len(items)]: int64(i),
				})
			}
		}(w)
	}
	// Wait for the writers to finish, then release the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for s.Version() < 4*300 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	if got := s.Version(); got != 4*300 {
		t.Fatalf("version %d, want %d", got, 4*300)
	}
}

// TestSimLatencySleeps checks SetSimLatency actually delays accesses.
func TestSimLatencySleeps(t *testing.T) {
	s := New()
	s.Set("x", 1)
	s.SetSimLatency(2 * time.Millisecond)
	start := time.Now()
	for i := 0; i < 5; i++ {
		s.Get("x")
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("5 reads with 2ms sim latency took %v, want >= 10ms", d)
	}
	s.SetSimLatency(0)
}
