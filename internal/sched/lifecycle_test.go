package sched_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/dmt"
	"repro/internal/engine"
	"repro/internal/history"
	"repro/internal/interval"
	"repro/internal/lock"
	"repro/internal/mvmt"
	"repro/internal/occ"
	"repro/internal/sched"
	"repro/internal/sgt"
	"repro/internal/storage"
	"repro/internal/tsto"
	"repro/internal/wal"
)

// lifecycleCase is one scheduler constructor under the lifecycle
// contract. blocking marks lock-based schedulers, whose conflicting
// operations wait instead of failing and so cannot run the
// single-goroutine cycle scenario.
type lifecycleCase struct {
	name     string
	mk       func(*storage.Store) sched.Scheduler
	blocking bool
}

func lifecycleCases() []lifecycleCase {
	mt := func(deferred bool) sched.MTOptions {
		return sched.MTOptions{Core: engine.Options{K: 3, StarvationAvoidance: true}, DeferWrites: deferred}
	}
	return []lifecycleCase{
		{name: "MT", mk: func(s *storage.Store) sched.Scheduler { return sched.NewMT(s, mt(false)) }},
		{name: "MT/deferred", mk: func(s *storage.Store) sched.Scheduler { return sched.NewMT(s, mt(true)) }},
		{name: "MTStriped", mk: func(s *storage.Store) sched.Scheduler { return sched.NewMTStriped(s, mt(false)) }},
		{name: "MTStriped/deferred", mk: func(s *storage.Store) sched.Scheduler { return sched.NewMTStriped(s, mt(true)) }},
		{name: "Composite", mk: func(s *storage.Store) sched.Scheduler {
			return sched.NewComposite(s, 3, engine.Options{StarvationAvoidance: true})
		}},
		{name: "Composite/coarse", mk: func(s *storage.Store) sched.Scheduler {
			return sched.NewCompositeCoarse(s, 3, engine.Options{StarvationAvoidance: true})
		}},
		{name: "Nested", mk: func(s *storage.Store) sched.Scheduler {
			return sched.NewNested(s, sched.NestedOptions{Ks: []int{2, 2}})
		}},
		{name: "Nested/coarse", mk: func(s *storage.Store) sched.Scheduler {
			return sched.NewNested(s, sched.NestedOptions{Ks: []int{2, 2}, Coarse: true})
		}},
		{name: "DMT", mk: func(s *storage.Store) sched.Scheduler {
			return sched.NewDMT(s, dmt.Options{K: 2, Sites: 2})
		}},
		{name: "DMT/coarse", mk: func(s *storage.Store) sched.Scheduler {
			return sched.NewDMTCoarse(s, dmt.Options{K: 2, Sites: 2})
		}},
		{name: "TO", mk: func(s *storage.Store) sched.Scheduler { return tsto.New(s, tsto.Options{}) }},
		{name: "TO/deferred", mk: func(s *storage.Store) sched.Scheduler {
			return tsto.New(s, tsto.Options{DeferWrites: true, ThomasWriteRule: true})
		}},
		{name: "OCC", mk: func(s *storage.Store) sched.Scheduler { return occ.New(s) }},
		{name: "SGT", mk: func(s *storage.Store) sched.Scheduler { return sgt.New(s) }},
		{name: "Interval", mk: func(s *storage.Store) sched.Scheduler { return interval.New(s, interval.Options{}) }},
		{name: "MVMT", mk: func(s *storage.Store) sched.Scheduler { return mvmt.New(s, mvmt.Options{K: 3}) }},
		{name: "2PL", mk: func(s *storage.Store) sched.Scheduler { return lock.NewTwoPL(s) }, blocking: true},
		{name: "Adaptive", mk: func(s *storage.Store) sched.Scheduler {
			return adaptive.New(s, adaptive.Options{Core: engine.Options{StarvationAvoidance: true}})
		}},
		{name: "Recorder", mk: func(s *storage.Store) sched.Scheduler { return history.Wrap(sched.NewMT(s, mt(true))) }},
	}
}

// call runs f, turning a panic into a failure of the current subtest
// only. The subtest stops there: a scheduler that panicked may still
// hold its mutex.
func call(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", what, r)
		}
	}()
	f()
}

// wantAbort checks that f returns an error wrapping ErrAbort.
func wantAbort(t *testing.T, what string, f func() error) {
	t.Helper()
	call(t, what, func() {
		if err := f(); !errors.Is(err, sched.ErrAbort) {
			t.Errorf("%s: err = %v, want ErrAbort", what, err)
		}
	})
}

// wantStray checks that Read, Write and Commit on txn — which has no
// live incarnation — all abort without panicking.
func wantStray(t *testing.T, s sched.Scheduler, txn int, when string) {
	t.Helper()
	wantAbort(t, fmt.Sprintf("Read %s", when), func() error { _, err := s.Read(txn, "x"); return err })
	wantAbort(t, fmt.Sprintf("Write %s", when), func() error { return s.Write(txn, "x", 1) })
	wantAbort(t, fmt.Sprintf("Commit %s", when), func() error { return s.Commit(txn) })
}

// must fails the test on a non-nil error.
func must(t *testing.T, what string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestLifecycleConformance holds every runtime scheduler to the one
// lifecycle contract (see sched/lifecycle.go): stray operations on a
// dead or never-begun id abort without panicking, Abort is idempotent
// (also after a failed Commit), ids are reusable after an abort, a
// transaction reads its own buffered writes, and a commit publishes
// under its own id, so the log writer acks it only once its record is
// durable.
func TestLifecycleConformance(t *testing.T) {
	for _, c := range lifecycleCases() {
		t.Run(c.name, func(t *testing.T) {
			t.Run("stray", func(t *testing.T) {
				s := c.mk(storage.New())
				wantStray(t, s, 7, "without Begin")
				s.Begin(8)
				must(t, "W8(x)", s.Write(8, "x", 1))
				s.Abort(8)
				wantStray(t, s, 8, "after Abort")
				call(t, "second Abort", func() { s.Abort(8) })
				s.Begin(9)
				must(t, "C9", s.Commit(9))
				wantStray(t, s, 9, "after Commit")
			})
			t.Run("own-write", func(t *testing.T) {
				st := storage.New()
				s := c.mk(st)
				s.Begin(1)
				must(t, "W1(x)", s.Write(1, "x", 7))
				v, err := s.Read(1, "x")
				must(t, "R1(x)", err)
				if v != 7 {
					t.Fatalf("R1(x) = %d, want own write 7", v)
				}
				must(t, "C1", s.Commit(1))
				if got := st.Get("x"); got != 7 {
					t.Fatalf("x = %d after commit, want 7", got)
				}
			})
			t.Run("reuse-after-abort", func(t *testing.T) {
				st := storage.New()
				s := c.mk(st)
				s.Begin(2)
				must(t, "W2(y)", s.Write(2, "y", 1))
				s.Abort(2)
				s.Begin(2)
				v, err := s.Read(2, "y")
				must(t, "R2(y) after restart", err)
				if v != 0 {
					t.Fatalf("restarted incarnation read %d, want the aborted write discarded", v)
				}
				must(t, "W2(y)", s.Write(2, "y", 2))
				must(t, "C2", s.Commit(2))
				if got := st.Get("y"); got != 2 {
					t.Fatalf("y = %d, want 2", got)
				}
			})
			t.Run("abort-after-failed-commit", func(t *testing.T) {
				if c.blocking {
					t.Skip("the cycle would block: conflicting locks wait")
				}
				s := c.mk(storage.New())
				// R1[y] R2[x] W2[y] C2 W1[x] C1 is a cycle (T1 -> T2 -> T1):
				// T1 must fail at its write or at its commit.
				s.Begin(1)
				s.Begin(2)
				_, err := s.Read(1, "y")
				must(t, "R1(y)", err)
				_, err = s.Read(2, "x")
				must(t, "R2(x)", err)
				must(t, "W2(y)", s.Write(2, "y", 2))
				must(t, "C2", s.Commit(2))
				wantAbort(t, "the cycle-closing W1(x)/C1", func() error {
					if err := s.Write(1, "x", 1); err != nil {
						return err
					}
					return s.Commit(1)
				})
				call(t, "Abort after the failed attempt", func() { s.Abort(1) })
				call(t, "second Abort", func() { s.Abort(1) })
				wantStray(t, s, 1, "after the failed attempt")
				s.Begin(1)
				must(t, "C1 of the reused id", s.Commit(1))
			})
			t.Run("durable-ack", func(t *testing.T) {
				st := storage.New()
				w, _, err := wal.Open(wal.Options{Dir: "wal", FS: wal.NewMemFS(1, 0), Sync: wal.SyncGroup})
				must(t, "wal.Open", err)
				w.Attach(st, nil)
				s := c.mk(st)
				s.Begin(5)
				must(t, "W5(x)", s.Write(5, "x", 1))
				must(t, "C5", s.Commit(5))
				ver := st.Version()
				must(t, "Wait(5)", w.Wait(5))
				if got := w.DurableVersion(); got < ver {
					t.Fatalf("Wait(5) acked with DurableVersion %d < commit version %d", got, ver)
				}
			})
		})
	}
}
