package txn

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// draws returns the first n backoff draws of the generator a
// transaction (seed, id) would use, at growing attempt numbers.
func draws(seed int64, id, n int) []time.Duration {
	rng := rand.NewPCG(uint64(jitterSeed(seed, id)), jitterStream)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = backoffDraw(rng, i+1, time.Millisecond, 1)
	}
	return out
}

// The jitter a transaction draws is a pure function of (Seed, id).
func TestJitterDeterministicPerSeedAndID(t *testing.T) {
	for _, seed := range []int64{0, 7} {
		if a, b := draws(seed, 42, 16), draws(seed, 42, 16); !slices.Equal(a, b) {
			t.Fatalf("seed %d: same (seed, id) drew %v then %v", seed, a, b)
		}
	}
}

// Different runtime seeds, and different ids under one seed, draw
// different jitter.
func TestJitterVariesWithSeedAndID(t *testing.T) {
	if slices.Equal(draws(7, 42, 16), draws(9, 42, 16)) {
		t.Fatal("runtime seeds 7 and 9 drew identical jitter for txn 42")
	}
	if slices.Equal(draws(0, 42, 16), draws(7, 42, 16)) {
		t.Fatal("runtime seed 7 drew the seed-0 jitter for txn 42")
	}
	if slices.Equal(draws(7, 42, 16), draws(7, 43, 16)) {
		t.Fatal("txns 42 and 43 drew identical jitter under one seed")
	}
}

// Every draw lies in [0, scale·base·2^min(n,6)]; a zero scale, zero or
// negative base, or negative scale draws no sleep at all.
func TestJitterDrawsWithinBound(t *testing.T) {
	rng := rand.NewPCG(1, jitterStream)
	for _, base := range []time.Duration{1, 3, time.Microsecond, 30 * time.Microsecond} {
		for _, scale := range []float64{0.25, 1, 4} {
			for n := 0; n <= 9; n++ {
				max := time.Duration(float64(base)*scale) << min(n, 6)
				for i := 0; i < 200; i++ {
					if d := backoffDraw(rng, n, base, scale); d < 0 || d > max {
						t.Fatalf("base %v scale %g n %d: draw %v outside [0, %v]", base, scale, n, d, max)
					}
				}
			}
		}
	}
	for _, c := range []struct {
		base  time.Duration
		scale float64
	}{{time.Millisecond, 0}, {time.Millisecond, -1}, {0, 1}, {-time.Millisecond, 1}} {
		for n := 0; n <= 9; n++ {
			if d := backoffDraw(rng, n, c.base, c.scale); d != 0 {
				t.Fatalf("base %v scale %g n %d: draw %v, want 0", c.base, c.scale, n, d)
			}
		}
	}
}

// commitAll is a scheduler that grants everything without allocating.
type commitAll struct{ alwaysAbort }

func (commitAll) Commit(int) error                { return nil }
func (commitAll) Read(int, string) (int64, error) { return 7, nil }
func (commitAll) Write(int, string, int64) error  { return nil }

var sinkReads map[string]int64

// A transaction that commits on its first attempt allocates nothing
// for jitter: its only allocation is the reads map it returns.
func TestFirstAttemptCommitAllocatesNoJitterState(t *testing.T) {
	rt := &Runtime{Sched: commitAll{}, Backoff: time.Millisecond, Seed: 7}
	spec := Spec{ID: 1, Ops: []Op{R("x"), W("y")}}
	readsMap := testing.AllocsPerRun(100, func() {
		m := make(map[string]int64)
		m["x"] = 7
		sinkReads = m
	})
	got := testing.AllocsPerRun(100, func() {
		if res := rt.Exec(spec); !res.Committed || res.Attempts != 1 {
			t.Fatalf("res = %+v", res)
		}
	})
	if got > readsMap {
		t.Fatalf("first-attempt commit made %g allocs, want at most the reads map's %g", got, readsMap)
	}
}
