package txn

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/sched"
	"repro/internal/storage"
)

// TestDeadlineCancelsBackoff pins the runtime against an always-aborting
// scheduler with a backoff base far longer than the deadline: without a
// cancellable sleep the transaction would be stuck in time.Sleep long
// past its budget.
func TestDeadlineCancelsBackoff(t *testing.T) {
	rt := &Runtime{
		Sched:    alwaysAbort{},
		Backoff:  10 * time.Second,
		Deadline: 20 * time.Millisecond,
	}
	start := time.Now()
	res := rt.Exec(Spec{ID: 1, Ops: []Op{R("x")}})
	if res.Committed || !res.DeadlineExceeded {
		t.Fatalf("res = %+v", res)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("deadline did not cancel the backoff sleep (waited %v)", waited)
	}
}

// TestDeadlineCancelsThink covers the think-time sleeps: a per-op think
// of 10s against a 20ms deadline must not block the caller.
func TestDeadlineCancelsThink(t *testing.T) {
	st := storage.New()
	rt := &Runtime{
		Sched:    mt(st),
		Think:    10 * time.Second,
		Deadline: 20 * time.Millisecond,
	}
	start := time.Now()
	res := rt.Exec(Spec{ID: 1, Ops: []Op{R("x"), W("y")}})
	if res.Committed || !res.DeadlineExceeded {
		t.Fatalf("res = %+v", res)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("deadline did not cancel the think sleep (waited %v)", waited)
	}
}

// TestStopCancelsSleeps covers shutdown: closing Stop mid-backoff
// releases the in-flight transaction promptly.
func TestStopCancelsSleeps(t *testing.T) {
	stop := make(chan struct{})
	rt := &Runtime{
		Sched:   alwaysAbort{},
		Backoff: 10 * time.Second,
		Stop:    stop,
	}
	done := make(chan Result, 1)
	go func() { done <- rt.Exec(Spec{ID: 1, Ops: []Op{R("x")}}) }()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	select {
	case res := <-done:
		if !res.DeadlineExceeded {
			t.Fatalf("res = %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not cancel the backoff sleep")
	}
}

// TestExecCtxCancel covers caller-context cancellation.
func TestExecCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rt := &Runtime{Sched: alwaysAbort{}, Backoff: 10 * time.Second}
	done := make(chan Result, 1)
	go func() { done <- rt.ExecCtx(ctx, Spec{ID: 1, Ops: []Op{R("x")}}) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		if !res.DeadlineExceeded {
			t.Fatalf("res = %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ctx cancel did not release the transaction")
	}
}

// blockingSched blocks inside Read until released — the latch-wait
// model: the deadline must abandon the attempt even though the
// scheduler call never returns on its own.
type blockingSched struct {
	release chan struct{}
	aborted sync.Map
}

func (b *blockingSched) Name() string { return "blocking" }
func (b *blockingSched) Begin(int)    {}
func (b *blockingSched) Abort(txn int) {
	b.aborted.Store(txn, true)
}
func (b *blockingSched) Commit(int) error { return nil }
func (b *blockingSched) Read(txn int, item string) (int64, error) {
	<-b.release
	return 0, nil
}
func (b *blockingSched) Write(txn int, item string, v int64) error { return nil }

func TestDeadlineAbandonsBlockedAttempt(t *testing.T) {
	b := &blockingSched{release: make(chan struct{})}
	rt := &Runtime{Sched: b, Deadline: 20 * time.Millisecond}
	start := time.Now()
	res := rt.Exec(Spec{ID: 7, Ops: []Op{R("x")}})
	if !res.DeadlineExceeded || res.Committed {
		t.Fatalf("res = %+v", res)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("blocked attempt not abandoned (waited %v)", waited)
	}
	// The incarnation was aborted so the scheduler can reclaim it.
	if _, ok := b.aborted.Load(7); !ok {
		t.Fatal("abandoned transaction was not aborted at the scheduler")
	}
	close(b.release) // let the straggler goroutine drain
}

// TestAdmitShedsTyped wires a controller with a full queue: the second
// transaction must come back Shed without touching the scheduler.
func TestAdmitShedsTyped(t *testing.T) {
	ctrl := admit.NewController(admit.Options{
		Limiter: admit.LimiterOptions{Initial: 1, Min: 1, Max: 1, QueuePerSlot: 1},
	})
	b := &blockingSched{release: make(chan struct{})}
	rt := &Runtime{Sched: b, Admit: ctrl, AttemptTimeout: time.Hour}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rt.ExecCtx(context.Background(), Spec{ID: 1, Ops: []Op{R("x")}})
	}()
	// Wait for txn 1 to hold the only slot.
	deadline := time.Now().Add(time.Second)
	for ctrl.InFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("txn 1 never admitted")
		}
		time.Sleep(50 * time.Microsecond)
	}
	// Fill the queue with a second waiter.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rt.ExecCtx(context.Background(), Spec{ID: 2, Ops: []Op{R("x")}})
	}()
	stats := func() admit.Stats { return ctrl.Stats() }
	for deadline = time.Now().Add(time.Second); ; {
		if st := stats(); st.InFlight == 1 && st.Shed == 0 {
			// A queued waiter is not directly observable; give it a moment.
			time.Sleep(time.Millisecond)
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	res := rt.ExecCtx(context.Background(), Spec{ID: 3, Ops: []Op{R("x")}})
	if !res.Shed || res.Attempts != 0 || res.Committed {
		t.Fatalf("res = %+v", res)
	}
	close(b.release)
	wg.Wait()
	if ctrl.Stats().Shed != 1 {
		t.Fatalf("shed = %d", ctrl.Stats().Shed)
	}
}

// TestDeadlineBoundsAdmission covers the two admission outcomes the
// deadline must bound although the gate decides them without arming
// the deadline timer up front: a transaction queued behind a full
// limiter expires at its deadline, and a shed transaction's ShedPause
// ends at the deadline too.
func TestDeadlineBoundsAdmission(t *testing.T) {
	ctrl := admit.NewController(admit.Options{
		Limiter: admit.LimiterOptions{Initial: 1, Min: 1, Max: 1, QueuePerSlot: 1},
	})
	b := &blockingSched{release: make(chan struct{})}
	defer close(b.release)
	holder := &Runtime{Sched: b, Admit: ctrl}
	go holder.Exec(Spec{ID: 1, Ops: []Op{R("x")}})
	for start := time.Now(); ctrl.InFlight() != 1; time.Sleep(50 * time.Microsecond) {
		if time.Since(start) > time.Second {
			t.Fatal("txn 1 never admitted")
		}
	}
	// Txns 2 and 3 race for the single queue place: one queues until
	// its deadline, the other is shed with a pause far past it.
	rt := &Runtime{Sched: b, Admit: ctrl, Deadline: 20 * time.Millisecond, ShedPause: 10 * time.Second}
	out := make(chan Result, 2)
	for id := 2; id <= 3; id++ {
		go func(id int) { out <- rt.Exec(Spec{ID: id, Ops: []Op{R("x")}}) }(id)
	}
	var shed, expired int
	for range 2 {
		res := <-out
		if res.Committed || res.Attempts != 0 {
			t.Fatalf("res = %+v", res)
		}
		if res.Latency > 2*time.Second {
			t.Fatalf("txn %d outlived its 20ms deadline by far: %v", res.ID, res.Latency)
		}
		if res.Shed {
			shed++
		}
		if res.DeadlineExceeded {
			expired++
		}
	}
	if shed != 1 || expired != 1 {
		t.Fatalf("shed %d, expired in queue %d; want one each", shed, expired)
	}
}

// TestAgedTransactionCommits drives one transaction past the elder
// threshold against a scheduler that aborts it N times, and checks the
// elder's retries stop sleeping (the run finishes fast despite a huge
// backoff base once promoted).
func TestAgedTransactionCommits(t *testing.T) {
	ctrl := admit.NewController(admit.Options{
		Aging: admit.AgingOptions{ElderAfter: 3},
	})
	s := &abortNTimes{n: 10}
	rt := &Runtime{
		Sched: s,
		Admit: ctrl,
		// Backoff large enough that 10 un-aged retries would take
		// far longer than the test timeout; the elder promotion after 3
		// restarts must drop the remaining sleeps to zero.
		Backoff: 200 * time.Millisecond,
	}
	start := time.Now()
	res := rt.Exec(Spec{ID: 1, Ops: []Op{W("x")}})
	if !res.Committed {
		t.Fatalf("res = %+v", res)
	}
	if res.Attempts != 11 {
		t.Fatalf("attempts = %d", res.Attempts)
	}
	// 3 pre-elder sleeps of <= 200ms*2^n jitter each can cost ~2s in the
	// worst case; 7 more at full exponential width would add up to ~60s.
	if waited := time.Since(start); waited > 15*time.Second {
		t.Fatalf("elder retries still sleeping (took %v)", waited)
	}
	if ctrl.Stats().Elders != 1 {
		t.Fatalf("elders = %d", ctrl.Stats().Elders)
	}
}

type abortNTimes struct {
	mu sync.Mutex
	n  int
}

func (a *abortNTimes) Name() string                             { return "abortN" }
func (a *abortNTimes) Begin(int)                                {}
func (a *abortNTimes) Abort(int)                                {}
func (a *abortNTimes) Commit(int) error                         { return nil }
func (a *abortNTimes) Read(txn int, item string) (int64, error) { return 0, nil }
func (a *abortNTimes) Write(txn int, item string, v int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n > 0 {
		a.n--
		return sched.Abort(txn, 99, "induced")
	}
	return nil
}

// TestDeadlineErrorTyped checks the typed error plumbing end to end.
func TestDeadlineErrorTyped(t *testing.T) {
	err := sched.DeadlineExceeded(4, time.Second, "backoff")
	var de *sched.DeadlineError
	if !errors.As(err, &de) || de.Txn != 4 || de.Stage != "backoff" {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(err, sched.ErrDeadlineExceeded) {
		t.Fatal("errors.Is(ErrDeadlineExceeded) false")
	}
	if err.Error() == "" {
		t.Fatal("empty error string")
	}
}
