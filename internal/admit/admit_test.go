package admit

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestLimiterAcquireRelease(t *testing.T) {
	l := NewLimiter(LimiterOptions{Initial: 2})
	ctx := context.Background()
	if err := l.Acquire(ctx, 1); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if err := l.Acquire(ctx, 2); err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	if got := l.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d", got)
	}
	l.Release(true, 1, time.Millisecond)
	if got := l.InFlight(); got != 1 {
		t.Fatalf("InFlight after release = %d", got)
	}
}

func TestLimiterShedsWhenQueueFull(t *testing.T) {
	l := NewLimiter(LimiterOptions{Initial: 1, Min: 1, QueuePerSlot: 1})
	ctx := context.Background()
	if err := l.Acquire(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// One waiter fits the queue.
	done := make(chan error, 1)
	go func() { done <- l.Acquire(ctx, 2) }()
	// Wait until the waiter is queued.
	deadline := time.Now().Add(time.Second)
	for {
		l.mu.Lock()
		queued := len(l.queue)
		l.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(50 * time.Microsecond)
	}
	// The next arrival must shed, typed.
	err := l.Acquire(ctx, 3)
	var oe *OverloadError
	if !errors.As(err, &oe) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want typed OverloadError, got %v", err)
	}
	if oe.Txn != 3 || oe.Limit != 1 {
		t.Fatalf("overload context = %+v", oe)
	}
	if l.Shed() != 1 {
		t.Fatalf("Shed = %d", l.Shed())
	}
	// Releasing hands the slot to the queued waiter.
	l.Release(false, 3, 0)
	if err := <-done; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	if got := l.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1 (transferred slot)", got)
	}
}

func TestLimiterAcquireCancelled(t *testing.T) {
	l := NewLimiter(LimiterOptions{Initial: 1})
	if err := l.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.Acquire(ctx, 2) }()
	deadline := time.Now().Add(time.Second)
	for {
		l.mu.Lock()
		queued := len(l.queue)
		l.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(50 * time.Microsecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The slot is still usable: release and re-acquire.
	l.Release(true, 1, 0)
	if err := l.Acquire(context.Background(), 3); err != nil {
		t.Fatalf("acquire after cancel: %v", err)
	}
}

func TestLimiterAIMD(t *testing.T) {
	l := NewLimiter(LimiterOptions{Initial: 8, Min: 1, Window: 4, TargetAbortRate: 0.5, Decrease: 0.5, LatencyFactor: 0})
	ctx := context.Background()
	// A window of pure aborts (gave-up transactions with many attempts)
	// must shrink the limit multiplicatively.
	for i := 0; i < 4; i++ {
		if err := l.Acquire(ctx, i); err != nil {
			t.Fatal(err)
		}
		l.Release(false, 10, 0)
	}
	if got := l.Limit(); got != 4 {
		t.Fatalf("limit after bad window = %d, want 4", got)
	}
	// A clean window (every attempt commits) must add one.
	for i := 0; i < 4; i++ {
		if err := l.Acquire(ctx, 10+i); err != nil {
			t.Fatal(err)
		}
		l.Release(true, 1, time.Microsecond)
	}
	if got := l.Limit(); got != 5 {
		t.Fatalf("limit after clean window = %d, want 5", got)
	}
	if l.decreases.Value() != 1 || l.increases.Value() != 1 {
		t.Fatalf("aimd counters = -%d/+%d", l.decreases.Value(), l.increases.Value())
	}
}

func TestLimiterLatencyGradient(t *testing.T) {
	l := NewLimiter(LimiterOptions{Initial: 8, Min: 1, Window: 4, TargetAbortRate: 0.99, LatencyFactor: 2, Decrease: 0.5})
	ctx := context.Background()
	// First window: fast commits establish the best p50.
	for i := 0; i < 4; i++ {
		if err := l.Acquire(ctx, i); err != nil {
			t.Fatal(err)
		}
		l.Release(true, 1, time.Millisecond)
	}
	// Second window: same abort rate (zero) but 10x the latency — the
	// gradient term must trigger the decrease.
	for i := 0; i < 4; i++ {
		if err := l.Acquire(ctx, 10+i); err != nil {
			t.Fatal(err)
		}
		l.Release(true, 1, 10*time.Millisecond)
	}
	if got := l.Limit(); got >= 8 {
		t.Fatalf("limit after slow window = %d, want < 8", got)
	}
}

// TestLimiterClimbFindsKnee drives the goodput climb over a synthetic
// curve that rises to a knee at limit 4 and falls past it: from a
// limit three times the knee the climb must walk down to it and then
// stay within one step of it.
func TestLimiterClimbFindsKnee(t *testing.T) {
	l := NewLimiter(LimiterOptions{Initial: 12, Max: 64})
	goodput := func(limit int) int64 { // commits per millisecond
		if limit <= 4 {
			return int64(10 * limit)
		}
		return int64(40 - 2*(limit-4))
	}
	now := time.Now()
	for round := 0; round < 60; round++ {
		for w := 0; w < climbWindows; w++ {
			start := now
			now = now.Add(time.Millisecond)
			l.mu.Lock()
			l.climbLocked(goodput(l.limit), start, now)
			l.mu.Unlock()
		}
		if got := l.Limit(); round >= 20 && (got < 3 || got > 5) {
			t.Fatalf("round %d: limit %d strayed from the knee at 4", round, got)
		}
	}
}

// A window that sheds arrivals hands the limit to the climb, which moves
// it only once a full round is measured; a healthy window that sheds
// nothing still adds one.
func TestLimiterShedWindowsClimb(t *testing.T) {
	l := NewLimiter(LimiterOptions{Initial: 8, Window: 1, LatencyFactor: -1})
	for i := 0; i < climbWindows-1; i++ {
		l.mu.Lock()
		l.winSheds = 1
		l.mu.Unlock()
		if err := l.Acquire(context.Background(), i); err != nil {
			t.Fatal(err)
		}
		l.Release(true, 1, time.Millisecond)
		if got := l.Limit(); got != 8 {
			t.Fatalf("limit moved to %d mid-round", got)
		}
	}
	l.mu.Lock()
	l.winSheds = 1
	l.mu.Unlock()
	if err := l.Acquire(context.Background(), 99); err != nil {
		t.Fatal(err)
	}
	l.Release(true, 1, time.Millisecond)
	if got := l.Limit(); got != 7 {
		t.Fatalf("limit after the first climb round = %d, want 7 (first step goes down)", got)
	}
	if err := l.Acquire(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	l.Release(true, 1, time.Millisecond)
	if got := l.Limit(); got != 8 {
		t.Fatalf("limit after a clean unshed window = %d, want 8", got)
	}
}

func TestAgingOldestWins(t *testing.T) {
	a := NewAging(AgingOptions{ElderAfter: 100, YieldScale: 4})
	a.Admitted(1) // oldest
	a.Admitted(2)
	a.Admitted(3) // youngest
	if s := a.OnAbort(2, 1); s != 4 {
		t.Fatalf("young aborted by old: scale = %v, want 4", s)
	}
	if s := a.OnAbort(1, 2); s != 0.25 {
		t.Fatalf("oldest: scale = %v, want 0.25 (express lane)", s)
	}
	if s := a.OnAbort(2, 999); s != 1 {
		t.Fatalf("unknown blocker: scale = %v, want 1", s)
	}
	if s := a.OnAbort(2, 3); s != 1 {
		t.Fatalf("old aborted by young: scale = %v, want 1", s)
	}
	if a.Restarts(1) != 1 || a.Restarts(2) != 3 {
		t.Fatalf("restarts = %d/%d", a.Restarts(1), a.Restarts(2))
	}
	// Once the oldest finishes, the next-oldest inherits the lane.
	a.Done(1)
	if s := a.OnAbort(2, 3); s != 0.25 {
		t.Fatalf("new oldest: scale = %v, want 0.25", s)
	}
}

func TestAgingElderBarrier(t *testing.T) {
	a := NewAging(AgingOptions{ElderAfter: 2})
	a.Admitted(1)
	a.Admitted(2)
	// Barrier open: WaitBarrier returns immediately.
	if err := a.WaitBarrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Promote txn 1 to elder.
	a.OnAbort(1, 2)
	if s := a.OnAbort(1, 2); s != 0.25 {
		t.Fatalf("elder scale = %v, want 0.25", s)
	}
	if a.elders.Value() != 1 {
		t.Fatalf("elders = %d", a.elders.Value())
	}
	// Barrier closed: a new admission must wait until the elder is done.
	released := make(chan error, 1)
	go func() { released <- a.WaitBarrier(context.Background()) }()
	select {
	case <-released:
		t.Fatal("barrier did not hold")
	case <-time.After(2 * time.Millisecond):
	}
	a.Done(1)
	select {
	case err := <-released:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("barrier never reopened")
	}
	// Context expiry while the barrier is closed returns the ctx error.
	a.Admitted(3)
	a.OnAbort(3, 2)
	a.OnAbort(3, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := a.WaitBarrier(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ctx deadline, got %v", err)
	}
}

func TestAgingDisabled(t *testing.T) {
	a := NewAging(AgingOptions{ElderAfter: 1, Disabled: true})
	a.Admitted(1)
	for i := 0; i < 10; i++ {
		if s := a.OnAbort(1, 2); s != 1 {
			t.Fatalf("disabled scale = %v", s)
		}
	}
	if err := a.WaitBarrier(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestStormTripAndClear(t *testing.T) {
	s := NewStorm(StormOptions{Window: 10, TripRatio: 3, Damp: 8})
	if s.Scale() != 1 {
		t.Fatal("fresh detector damping")
	}
	// 9 aborts : 1 commit = ratio 9 -> trip.
	for i := 0; i < 9; i++ {
		s.OnAbort()
	}
	s.OnCommit()
	if !s.Storming() || s.Scale() != 8 {
		t.Fatalf("storming=%v scale=%v", s.Storming(), s.Scale())
	}
	if s.Trips() != 1 {
		t.Fatalf("trips = %d", s.Trips())
	}
	// A healthy window clears it (ratio 10/9... need <= 1.5): all commits.
	for i := 0; i < 10; i++ {
		s.OnCommit()
	}
	if s.Storming() {
		t.Fatal("storm did not clear")
	}
	// Hysteresis: a window at ratio 2 (between clear 1.5 and trip 3)
	// neither trips nor clears.
	for i := 0; i < 6; i++ {
		s.OnAbort()
	}
	for i := 0; i < 3; i++ {
		s.OnCommit()
	}
	s.OnCommit()
	if s.Storming() {
		t.Fatal("mid-band window tripped")
	}
}

func TestStormAllAbortsTrips(t *testing.T) {
	s := NewStorm(StormOptions{Window: 8})
	for i := 0; i < 8; i++ {
		s.OnAbort()
	}
	if !s.Storming() {
		t.Fatal("zero-commit window did not trip")
	}
}

func TestBreakerTripHalfOpenClose(t *testing.T) {
	b := NewBreaker(2, BreakerOptions{Cooldown: time.Millisecond})
	if !b.Allow(0) || !b.Allow(1) {
		t.Fatal("fresh breaker not closed")
	}
	// Drive site 0 Down (defaults: DownAfter = 6).
	for i := 0; i < 6; i++ {
		b.Observe(0, false)
	}
	if !b.Open(0) {
		t.Fatal("breaker did not open")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d", b.Trips())
	}
	if b.Allow(0) {
		t.Fatal("open breaker allowed traffic")
	}
	if b.FastFails() == 0 {
		t.Fatal("fast-fail not counted")
	}
	if !b.Allow(1) {
		t.Fatal("healthy site affected")
	}
	// After the cooldown exactly one probe gets through.
	time.Sleep(2 * time.Millisecond)
	if !b.Allow(0) {
		t.Fatal("half-open probe refused")
	}
	if b.Allow(0) {
		t.Fatal("second concurrent probe allowed")
	}
	// Failed probe reopens for another cooldown.
	b.Observe(0, false)
	if b.Allow(0) {
		t.Fatal("reopened breaker allowed traffic")
	}
	time.Sleep(2 * time.Millisecond)
	if !b.Allow(0) {
		t.Fatal("second half-open probe refused")
	}
	// Successful probe closes the circuit.
	b.Observe(0, true)
	if b.Open(0) || !b.Allow(0) {
		t.Fatal("breaker did not close on success")
	}
	st := b.Stats()
	if st.Trips != 1 || st.Reprobes != 2 || st.Open != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBreakerOutOfRange(t *testing.T) {
	b := NewBreaker(1, BreakerOptions{})
	if b.Allow(-1) || b.Allow(1) {
		t.Fatal("out-of-range site allowed")
	}
	b.Observe(-1, false) // must not panic
	b.Observe(5, true)
}

func TestControllerEndToEnd(t *testing.T) {
	c := NewController(Options{
		Limiter: LimiterOptions{Initial: 4, Window: 4},
		Aging:   AgingOptions{ElderAfter: 3},
		Storm:   StormOptions{Window: 8, TripRatio: 2, Damp: 4},
	})
	ctx := context.Background()
	if err := c.Admit(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if c.InFlight() != 1 {
		t.Fatalf("InFlight = %d", c.InFlight())
	}
	// Aborts feed the storm detector and the aging table.
	for i := 0; i < 7; i++ {
		c.OnAbort(1, 99)
	}
	// 7 aborts + 1 commit closes the storm window at ratio 7 -> storm.
	c.Done(1, true, 8, time.Millisecond)
	st := c.Stats()
	if st.InFlight != 0 {
		t.Fatalf("InFlight after Done = %d", st.InFlight)
	}
	if st.StormTrips != 1 || !st.Storming {
		t.Fatalf("storm stats = %+v", st)
	}
	if st.Elders != 1 {
		t.Fatalf("elders = %d (txn 1 passed ElderAfter)", st.Elders)
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
	// While storming, a non-oldest abort scale carries the damping; the
	// oldest live transaction keeps its express lane even mid-storm.
	if err := c.Admit(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Admit(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if s := c.OnAbort(3, 99); s != 4 {
		t.Fatalf("storm scale = %v, want 4", s)
	}
	if s := c.OnAbort(2, 99); s != 0.25*4 {
		t.Fatalf("oldest scale = %v, want 1 (express lane x storm damping)", s)
	}
	c.Done(2, false, 2, 0)
	c.Done(3, false, 2, 0)
}

func TestControllerConcurrent(t *testing.T) {
	c := NewController(Options{
		Limiter: LimiterOptions{Initial: 4, Window: 8},
		Aging:   AgingOptions{ElderAfter: 4},
		Storm:   StormOptions{},
	})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			if err := c.Admit(ctx, id); err != nil {
				if errors.Is(err, ErrOverloaded) || errors.Is(err, context.DeadlineExceeded) {
					return
				}
				t.Errorf("admit %d: %v", id, err)
				return
			}
			for i := 0; i < 3; i++ {
				c.OnAbort(id, (id+1)%16)
			}
			c.Done(id, id%2 == 0, 4, time.Millisecond)
		}(w)
	}
	wg.Wait()
	if c.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain", c.InFlight())
	}
}
