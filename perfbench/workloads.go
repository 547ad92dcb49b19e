package main

import (
	"fmt"
	"runtime"
	"time"

	mdts "repro"
	"repro/internal/admit"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// workloadDef fixes every parameter of one benchmark workload. Only the
// seed comes from the command line.
type workloadDef struct {
	Name string
	Why  string
	// Open selects the open loop (one generator offering Rate txn/s);
	// otherwise Clients closed-loop clients each run one txn at a time.
	Open    bool
	Clients int
	Rate    float64
	// Transaction shape and item distribution (workload.Config).
	Ops      int
	ReadFrac float64
	Items    int
	ZipfS    float64 // > 1 draws items Zipf(s); otherwise uniform
	// Scheduler and runtime.
	DeferWrites bool
	Deadline    time.Duration
	Admit       bool
	// WAL group commit (SyncGroup, default BatchDelay) when set, on an
	// in-memory filesystem: on a shared host the real disk's fsync
	// latency swings by several times between minutes, which made every
	// latency and goodput figure of this workload unsteady.
	WAL             bool
	CheckpointEvery int
}

// backoff is the runtime's retry backoff base on every workload (the
// value cmd/mtsim uses).
const backoff = 20 * time.Microsecond

// ringSize is how many distinct transaction specs a run cycles through.
// Txn ids keep increasing past it; id i runs spec (i-1) % ringSize.
const ringSize = 1 << 16

var workloads = []workloadDef{
	{
		Name:    "uniform-rw",
		Why:     "rare real conflicts: time goes to the CPU path txn -> sched -> engine -> storage; wal and admit idle",
		Clients: 2, Ops: 4, ReadFrac: 0.7, Items: 65536,
	},
	{
		Name:    "durable-writes",
		Why:     "write-heavy with a SyncGroup WAL: wal group commit and storage apply dominate while the engine is nearly idle",
		Clients: 2, Ops: 4, ReadFrac: 0.3, Items: 65536,
		WAL: true, CheckpointEvery: 2048,
	},
	{
		Name: "hot-overload",
		Why:  "open loop at ~3x capacity on 256 Zipf items: real conflicts, commit-time validation, backoff, admission shedding",
		Open: true, Rate: 40000, Ops: 4, ReadFrac: 0.5, Items: 256, ZipfS: 1.1,
		DeferWrites: true, Deadline: 25 * time.Millisecond, Admit: true,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// params renders every workload parameter for the provenance record.
func (w workloadDef) params() string {
	loop := fmt.Sprintf("closed clients=%d", w.Clients)
	if w.Open {
		loop = fmt.Sprintf("open rate=%.0f/s", w.Rate)
	}
	dist := "uniform"
	if w.ZipfS > 1 {
		dist = fmt.Sprintf("zipf(s=%g)", w.ZipfS)
	}
	mode := "immediate"
	if w.DeferWrites {
		mode = "deferred"
	}
	walDesc := "off"
	if w.WAL {
		walDesc = fmt.Sprintf("sync=group batch_delay=200us checkpoint_every=%d fs=memory", w.CheckpointEvery)
	}
	return fmt.Sprintf("loop=%s ops=%d read_frac=%g items=%d dist=%s sched=MT(%d)/striped mode=%s backoff=%s deadline=%s admit=%t wal=[%s] spec_ring=%d",
		loop, w.Ops, w.ReadFrac, w.Items, dist, mdts.DefaultMTOptions(w.Ops).K, mode, backoff, w.Deadline, w.Admit, walDesc, ringSize)
}

// system is one set-up instance of a workload: the store, the scheduler
// and runtime over it, and the inputs the run cycles through.
type system struct {
	def   workloadDef
	ring  []txn.Spec
	store *storage.Store
	mt    *sched.MTStriped
	// witness sits between the runtime and the scheduler and records
	// every commit the scheduler made.
	witness *commitWitness
	rt      *txn.Runtime
	ctrl    *admit.Controller
	wal     *wal.Writer
	walFS   *wal.MemFS
	// Set-up phase timings.
	generate, preload, walOpen time.Duration
}

// preloadValue is the value an item holds before any transaction writes
// it. It is negative, so it can never be mistaken for a txn id (every
// write stores its writer's id).
func preloadValue(item int) int64 { return -int64(item) - 1 }

// walDir is the WAL directory inside the system's in-memory filesystem.
const walDir = "wal"

// setup builds a system for def from seed. wrap, when non-nil,
// decorates the scheduler the runtime drives (tests use it to inject
// faults).
func setup(def workloadDef, seed int64, wrap func(sched.Scheduler) sched.Scheduler) (*system, error) {
	s := &system{def: def}

	t0 := time.Now()
	s.ring = workload.Config{
		Txns: ringSize, OpsPerTxn: def.Ops, Items: def.Items,
		ReadFraction: def.ReadFrac, ZipfS: def.ZipfS, Seed: seed,
	}.Generate()
	s.generate = time.Since(t0)

	t0 = time.Now()
	s.store = storage.New()
	for i := 0; i < def.Items; i++ {
		s.store.Set(workload.ItemName(i), preloadValue(i))
	}
	s.preload = time.Since(t0)

	s.mt = sched.NewMTStriped(s.store, sched.MTOptions{Core: mdts.DefaultMTOptions(def.Ops), DeferWrites: def.DeferWrites})
	var sc sched.Scheduler = s.mt
	if wrap != nil {
		sc = wrap(sc)
	}
	s.witness = &commitWitness{inner: sc}
	s.rt = &txn.Runtime{Sched: s.witness, Backoff: backoff, Deadline: def.Deadline, Seed: seed}
	if def.Admit {
		s.ctrl = admit.NewController(admit.Options{})
		s.rt.Admit = s.ctrl
	}

	if def.WAL {
		t0 = time.Now()
		s.walFS = wal.NewMemFS(seed, 0)
		w, _, err := wal.Open(wal.Options{Dir: walDir, FS: s.walFS, Sync: wal.SyncGroup, CheckpointEvery: def.CheckpointEvery})
		if err != nil {
			return nil, fmt.Errorf("opening WAL: %w", err)
		}
		s.wal = w
		w.Attach(s.store, s.mt.WALCounters)
		// The preload happened before the journal was attached, so the
		// first checkpoint is what makes it durable.
		if err := w.Checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpointing preload: %w", err)
		}
		s.rt.Durable = w
		s.walOpen = time.Since(t0)
	}
	return s, nil
}

// total is the set-up time of this instance.
func (s *system) total() time.Duration { return s.generate + s.preload + s.walOpen }

// spec returns the spec the txn with this id runs.
func (s *system) spec(id int) txn.Spec {
	return txn.Spec{ID: id, Ops: s.ring[(id-1)%ringSize].Ops}
}

// close releases the WAL, if it is still open.
func (s *system) close() {
	if s.wal != nil {
		_ = s.wal.Close() // the run is over; recovery was checked before
		s.wal = nil
	}
}

// setupMedian builds the system n times and keeps the last instance;
// the reported set-up time of each phase is the median over the n.
func setupMedian(def workloadDef, seed int64, n int) (*system, setupTimes, error) {
	var gen, pre, wo, tot []float64
	var s *system
	for i := 0; i < n; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		// Every repetition starts from a collected heap.
		runtime.GC()
		var err error
		s, err = setup(def, seed, nil)
		if err != nil {
			return nil, setupTimes{}, err
		}
		gen = append(gen, s.generate.Seconds())
		pre = append(pre, s.preload.Seconds())
		wo = append(wo, s.walOpen.Seconds())
		tot = append(tot, s.total().Seconds())
	}
	return s, setupTimes{
		total: median(tot), generate: median(gen), preload: median(pre), walOpen: median(wo), all: tot,
	}, nil
}

type setupTimes struct {
	total, generate, preload, walOpen float64   // medians, seconds
	all                               []float64 // total of each repetition
}
