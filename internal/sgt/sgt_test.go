package sgt

import (
	"errors"
	"testing"

	"repro/internal/sched"
	"repro/internal/storage"
)

func TestAcceptsSerializableInterleaving(t *testing.T) {
	s := New(storage.New())
	s.Begin(1)
	s.Begin(2)
	if _, err := s.Read(1, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(2, "y"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, "x", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(2, "y", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsCycle(t *testing.T) {
	s := New(storage.New())
	s.Begin(1)
	s.Begin(2)
	if _, err := s.Read(1, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(2, "y"); err != nil {
		t.Fatal(err)
	}
	// W2[x] creates 1 -> 2; W1[y] would create 2 -> 1: cycle.
	if err := s.Write(2, "x", 1); err != nil {
		t.Fatal(err)
	}
	err := s.Write(1, "y", 1)
	if !errors.Is(err, sched.ErrAbort) {
		t.Fatalf("cycle not detected: %v", err)
	}
}

// SGT accepts the Example 1 ordering that TO(1) rejects: DSR is the
// largest recognizable class. The runtime SGT additionally forbids reads
// over a live writer (no dirty-read window), so T1 commits before the
// readers arrive — the T2 -> T3 late dependency is still the crux.
func TestAcceptsExample1(t *testing.T) {
	s := New(storage.New())
	s.Begin(1)
	if err := s.Write(1, "x", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, "y", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	s.Begin(2)
	s.Begin(3)
	if _, err := s.Read(3, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(2, "y"); err != nil {
		t.Fatal(err)
	}
	// The late dependency T2 -> T3 (W3[y] after R2[y]) is fine for SGT.
	if err := s.Write(3, "y", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
}

// The no-dirty-read rule: reading an item with a live writer aborts.
func TestReadOverLiveWriterAborts(t *testing.T) {
	s := New(storage.New())
	s.Begin(1)
	s.Begin(2)
	if err := s.Write(1, "x", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(2, "x"); err == nil {
		t.Fatal("read over uncommitted writer accepted")
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(2, "x"); err != nil {
		t.Fatalf("read after commit rejected: %v", err)
	}
}

func TestAbortRemovesEdges(t *testing.T) {
	s := New(storage.New())
	s.Begin(1)
	s.Begin(2)
	if _, err := s.Read(1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(2, "x", 1); err != nil {
		t.Fatal(err)
	}
	s.Abort(2) // removes 1 -> 2
	s.Begin(2)
	// Now the reverse order is fine: T2 reads y, T1 writes y.
	if _, err := s.Read(2, "y"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, "y", 1); err != nil {
		t.Fatalf("edge from aborted incarnation leaked: %v", err)
	}
}

func TestGCPrunesCommittedSources(t *testing.T) {
	st := storage.New()
	s := New(st)
	for i := 1; i <= 30; i++ {
		s.Begin(i)
		if _, err := s.Read(i, "x"); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(i, "x", int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(i); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.GraphSize(); n != 0 {
		t.Fatalf("graph size after quiescence = %d, want 0", n)
	}
	if st.Get("x") != 30 {
		t.Fatalf("x = %d", st.Get("x"))
	}
}

func TestWritesInvisibleUntilCommit(t *testing.T) {
	st := storage.New()
	s := New(st)
	s.Begin(1)
	if err := s.Write(1, "x", 42); err != nil {
		t.Fatal(err)
	}
	if st.Get("x") != 0 {
		t.Fatal("dirty write visible")
	}
	s.Abort(1)
	if st.Get("x") != 0 {
		t.Fatal("aborted write applied")
	}
}

// At most one uncommitted writer per item: the conflict edge orders the
// second writer after the first, but data publishes in commit order, so
// the first writer committing last would overwrite the later value.
func TestSecondUncommittedWriterAborts(t *testing.T) {
	st := storage.New()
	s := New(st)
	s.Begin(1)
	s.Begin(2)
	if err := s.Write(1, "x", 1); err != nil {
		t.Fatal(err)
	}
	err := s.Write(2, "x", 2)
	var ae *sched.AbortError
	if !errors.As(err, &ae) || ae.Blocker != 1 || ae.Reason != "write conflicts with uncommitted writer" {
		t.Fatalf("second writer: %v, want the uncommitted-writer abort blocked by T1", err)
	}
	s.Abort(2)
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	s.Begin(2)
	if err := s.Write(2, "x", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	if got := st.Get("x"); got != 2 {
		t.Fatalf("x = %d, want the later writer's 2", got)
	}
}
