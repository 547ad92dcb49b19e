package sched

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
)

// mtAdapter is one MT adapter configuration under test.
type mtAdapter struct {
	name     string
	deferred bool
	mk       func() Scheduler
}

// mtAdapters are the coarse and striped MT adapters in both write
// disciplines, with the starvation fix on.
func mtAdapters() []mtAdapter {
	var out []mtAdapter
	for _, deferred := range []bool{false, true} {
		opts := MTOptions{Core: engine.Options{K: 3, StarvationAvoidance: true}, DeferWrites: deferred}
		out = append(out,
			mtAdapter{"MT", deferred, func() Scheduler { return NewMT(storage.New(), opts) }},
			mtAdapter{"MTStriped", deferred, func() Scheduler { return NewMTStriped(storage.New(), opts) }})
	}
	for i := range out {
		if out[i].deferred {
			out[i].name += "/deferred"
		}
	}
	return out
}

// run executes one transaction's ops serially and returns the first
// error; commit says whether to commit it afterwards.
func run(t *testing.T, s Scheduler, id int, commit bool, ops ...string) error {
	t.Helper()
	s.Begin(id)
	for _, op := range ops {
		var err error
		if op[0] == 'R' {
			_, err = s.Read(id, op[1:])
		} else {
			err = s.Write(id, op[1:], int64(id))
		}
		if err != nil {
			return err
		}
	}
	if commit {
		return s.Commit(id)
	}
	return nil
}

// abortOf returns err as an *AbortError, failing the test otherwise.
func abortOf(t *testing.T, err error) *AbortError {
	t.Helper()
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want an *AbortError", err)
	}
	return ae
}

// The relative "+1" encoding inverts a serial history: T3 reads y
// (ordered after T0 only, so TS(3) = <1>) and then x, whose last reader
// T2 holds <2>. The reject names T2; it is settled exactly when T2 has
// no live incarnation.
func TestProtocolRejectSettledIffBlockerFinished(t *testing.T) {
	for _, a := range mtAdapters() {
		t.Run(a.name, func(t *testing.T) {
			for _, c := range []struct {
				name    string
				blocker func(Scheduler)
				settled bool
			}{
				{"committed", func(s Scheduler) {
					if err := run(t, s, 2, true, "Rx"); err != nil {
						t.Fatal(err)
					}
				}, true},
				{"aborted", func(s Scheduler) {
					if err := run(t, s, 2, false, "Rx"); err != nil {
						t.Fatal(err)
					}
					s.Abort(2)
				}, true},
				{"live", func(s Scheduler) {
					if err := run(t, s, 2, false, "Rx"); err != nil {
						t.Fatal(err)
					}
				}, false},
			} {
				t.Run(c.name, func(t *testing.T) {
					s := a.mk()
					if err := run(t, s, 1, true, "Wx"); err != nil {
						t.Fatal(err)
					}
					c.blocker(s)
					ae := abortOf(t, run(t, s, 3, false, "Ry", "Rx"))
					if ae.Reason != "read rejected" || ae.Blocker != 2 || ae.Settled != c.settled {
						t.Fatalf("abort %+v, want read rejected by 2 with Settled=%v", ae, c.settled)
					}
				})
			}
		})
	}
}

// The write arm of the same inversion: T3's write of x is rejected by
// the committed reader T2 at write time (immediate) or at commit-time
// validation (deferred), and both rejects are settled.
func TestWriteRejectSettledByCommittedBlocker(t *testing.T) {
	for _, a := range mtAdapters() {
		t.Run(a.name, func(t *testing.T) {
			s := a.mk()
			if err := run(t, s, 1, true, "Wx"); err != nil {
				t.Fatal(err)
			}
			if err := run(t, s, 2, true, "Rx"); err != nil {
				t.Fatal(err)
			}
			ae := abortOf(t, run(t, s, 3, true, "Ry", "Wx"))
			want := "write rejected"
			if a.deferred {
				want = "commit-time write validation failed"
			}
			if ae.Reason != want || ae.Blocker != 2 || !ae.Settled {
				t.Fatalf("abort %+v, want settled %q by 2", ae, want)
			}
		})
	}
}

// The uncommitted-writer guards are never settled: their blocker is
// live by construction.
func TestUncommittedWriterGuardsNotSettled(t *testing.T) {
	for _, a := range mtAdapters() {
		if a.deferred {
			continue // deferred writes leave no uncommitted writer in WT(x)
		}
		t.Run(a.name, func(t *testing.T) {
			s := a.mk()
			if err := run(t, s, 1, false, "Wx"); err != nil {
				t.Fatal(err)
			}
			ae := abortOf(t, run(t, s, 2, false, "Wx"))
			if ae.Reason != "write conflicts with uncommitted writer" || ae.Settled {
				t.Fatalf("write guard abort %+v, want unsettled", ae)
			}
			ae = abortOf(t, run(t, s, 3, false, "Rx"))
			if ae.Reason != "read ordered after uncommitted writer" || ae.Settled {
				t.Fatalf("read guard abort %+v, want unsettled", ae)
			}
		})
	}
}
