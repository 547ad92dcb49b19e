package txn

import (
	"context"
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/sched"
)

// rejectOnce rejects the first read it serves with a protocol reject
// by blocker, settled or not, and grants everything after.
type rejectOnce struct {
	blocker  int
	settled  bool
	rejected atomic.Bool
}

func (*rejectOnce) Name() string                   { return "reject-once" }
func (*rejectOnce) Begin(int)                      {}
func (*rejectOnce) Abort(int)                      {}
func (*rejectOnce) Commit(int) error               { return nil }
func (*rejectOnce) Write(int, string, int64) error { return nil }
func (s *rejectOnce) Read(txn int, _ string) (int64, error) {
	if s.rejected.CompareAndSwap(false, true) {
		return 0, &sched.AbortError{Txn: txn, Blocker: s.blocker, Reason: "read rejected", Settled: s.settled}
	}
	return 0, nil
}

// firstDraw is the backoff a transaction (seed, id) draws for its first
// conflict at the given base and scale.
func firstDraw(seed int64, id int, base time.Duration, scale float64) time.Duration {
	return backoffDraw(rand.NewPCG(uint64(jitterSeed(seed, id)), jitterStream), 1, base, scale)
}

// A retry after a settled reject skips its backoff only at an admission
// scale of exactly 1. Each case runs under a deadline well below the
// sleep its first retry draws, so a slept backoff is cut short by the
// deadline and a skipped one commits.
func TestSettledRejectRetriesAtOnce(t *testing.T) {
	const (
		seed     = 5
		backoff  = time.Second
		deadline = 150 * time.Millisecond
		blocker  = 1 // admitted first, so older than the retrying txn
	)
	// The express scale applies to the oldest live transaction, the
	// yield scale to one whose blocker is older and live.
	id := 2
	for firstDraw(seed, id, backoff, 0.25) < 2*deadline || firstDraw(seed, id, backoff, 1) < 2*deadline ||
		firstDraw(seed, id, backoff, 4) < 2*deadline {
		id++
	}
	for _, c := range []struct {
		name      string
		settled   bool
		admission string // "", "express" or "yield"
		sleeps    bool
	}{
		{"settled", true, "", false},
		{"live blocker", false, "", true},
		{"settled express", true, "express", true},
		{"settled yield", true, "yield", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt := &Runtime{
				Sched:    &rejectOnce{blocker: blocker, settled: c.settled},
				Backoff:  backoff,
				Deadline: deadline,
				Seed:     seed,
			}
			if c.admission != "" {
				rt.Admit = admit.NewController(admit.Options{})
			}
			if c.admission == "yield" {
				if err := rt.Admit.Admit(context.Background(), blocker); err != nil {
					t.Fatal(err)
				}
				defer rt.Admit.Done(blocker, true, 1, 0)
			}
			res := rt.Exec(Spec{ID: id, Ops: []Op{R("x")}})
			if c.sleeps {
				if res.Committed || !res.DeadlineExceeded {
					t.Fatalf("retry did not sleep its backoff: %+v", res)
				}
				return
			}
			if !res.Committed || res.Attempts != 2 || res.Latency >= deadline {
				t.Fatalf("settled retry slept: %+v", res)
			}
		})
	}
}
