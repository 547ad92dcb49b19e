package tsto

import (
	"errors"
	"testing"

	"repro/internal/sched"
	"repro/internal/storage"
)

func TestTimestampsIncrease(t *testing.T) {
	s := New(storage.New(), Options{})
	s.Begin(1)
	s.Begin(2)
	if !(s.Timestamp(1) < s.Timestamp(2)) {
		t.Fatalf("ts1=%d ts2=%d", s.Timestamp(1), s.Timestamp(2))
	}
	if s.Timestamp(99) != 0 {
		t.Fatal("unknown txn should report 0")
	}
}

func TestReadTooLateAborts(t *testing.T) {
	s := New(storage.New(), Options{})
	s.Begin(1) // ts 1
	s.Begin(2) // ts 2
	if err := s.Write(2, "x", 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	_, err := s.Read(1, "x")
	if !errors.Is(err, sched.ErrAbort) {
		t.Fatalf("stale read: %v", err)
	}
}

func TestWriteAfterLaterReadAborts(t *testing.T) {
	s := New(storage.New(), Options{})
	s.Begin(1)
	s.Begin(2)
	if _, err := s.Read(2, "x"); err != nil {
		t.Fatal(err)
	}
	err := s.Write(1, "x", 5)
	if !errors.Is(err, sched.ErrAbort) {
		t.Fatalf("late write: %v", err)
	}
}

func TestThomasWriteRuleSkips(t *testing.T) {
	st := storage.New()
	s := New(st, Options{ThomasWriteRule: true})
	s.Begin(1) // ts 1
	s.Begin(2) // ts 2
	if err := s.Write(2, "x", 20); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	// T1's obsolete write is skipped, not aborted.
	if err := s.Write(1, "x", 10); err != nil {
		t.Fatalf("Thomas rule should skip: %v", err)
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	if st.Get("x") != 20 {
		t.Fatalf("x = %d, want 20 (obsolete write dropped)", st.Get("x"))
	}
}

func TestWithoutThomasRuleAborts(t *testing.T) {
	s := New(storage.New(), Options{})
	s.Begin(1)
	s.Begin(2)
	if err := s.Write(2, "x", 20); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, "x", 10); !errors.Is(err, sched.ErrAbort) {
		t.Fatalf("want abort, got %v", err)
	}
}

func TestDeferredWritesValidateAtCommit(t *testing.T) {
	s := New(storage.New(), Options{DeferWrites: true})
	s.Begin(1)
	s.Begin(2)
	// T1 buffers a write; T2 reads the item and commits first.
	if err := s.Write(1, "x", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(2, "x"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	// Commit-time validation sees rt(x) = 2 > ts(1).
	if err := s.Commit(1); !errors.Is(err, sched.ErrAbort) {
		t.Fatalf("want commit abort, got %v", err)
	}
}

func TestRetryGetsFreshTimestamp(t *testing.T) {
	s := New(storage.New(), Options{})
	s.Begin(1)
	ts1 := s.Timestamp(1)
	s.Abort(1)
	s.Begin(1)
	if s.Timestamp(1) <= ts1 {
		t.Fatal("retry must draw a later timestamp")
	}
}

func TestReadYourOwnWrite(t *testing.T) {
	s := New(storage.New(), Options{})
	s.Begin(1)
	if err := s.Write(1, "x", 7); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read(1, "x")
	if err != nil || v != 7 {
		t.Fatalf("v=%d err=%v", v, err)
	}
}

// Example 1 at the runtime level: under single-valued TO the transaction
// that started earlier cannot consume a later transaction's conflicting
// slot — the exact premature-ordering abort MT(k) avoids.
func TestExample1ShapeAborts(t *testing.T) {
	s := New(storage.New(), Options{})
	s.Begin(3) // T3 starts first (smaller timestamp)
	s.Begin(2)
	if _, err := s.Read(3, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(2, "y"); err != nil {
		t.Fatal(err)
	}
	// T2 commits a write to y... then T3 writing y must abort.
	if err := s.Write(2, "y", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(3, "y", 2); !errors.Is(err, sched.ErrAbort) {
		t.Fatalf("want abort, got %v", err)
	}
}

// Immediate mode admits one uncommitted writer per item: wt(x) moves at
// write time but data at commit, so a second live writer could publish
// before the first and then be overwritten by it (a lost update).
func TestSecondUncommittedWriterAborts(t *testing.T) {
	st := storage.New()
	s := New(st, Options{})
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
