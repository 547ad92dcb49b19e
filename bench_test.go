// Benchmarks regenerating the paper's tables, figures and analytical
// claims. Each benchmark corresponds to an experiment id in DESIGN.md
// (E1-E18) and reports the paper-relevant quantity as a custom metric
// besides ns/op:
//
//	accept/log    acceptance fraction of a log corpus (degree of
//	              concurrency, Fig. 4 / Section III-C)
//	restarts/txn  runtime abort pressure (Fig. 5, Section VI)
//	steps         parallel comparison depth (Fig. 6, Theorem 4)
//	msgs/op       DMT(k) message overhead (Section V-B)
//
// Run: go test -bench=. -benchmem
package mdts

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/classify"
	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/dmt"
	"repro/internal/engine"
	"repro/internal/enumerate"
	"repro/internal/interval"
	"repro/internal/lock"
	"repro/internal/mvmt"
	"repro/internal/nested"
	"repro/internal/occ"
	"repro/internal/oplog"
	"repro/internal/sched"
	"repro/internal/sgt"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tsto"
	"repro/internal/txn"
	"repro/internal/vecproc"
	"repro/internal/wal"
	"repro/internal/workload"
)

// corpus generates a deterministic set of random two-step logs used by
// the acceptance benchmarks.
func corpus(n, txns, items int, seed int64) []*oplog.Log {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"x", "y", "z", "w"}[:items]
	logs := make([]*oplog.Log, 0, n)
	for i := 0; i < n; i++ {
		type pend struct{ r, w oplog.Op }
		var pends []pend
		for t := 1; t <= txns; t++ {
			pends = append(pends, pend{
				oplog.R(t, names[rng.Intn(items)]),
				oplog.W(t, names[rng.Intn(items)]),
			})
		}
		var ops []oplog.Op
		emitted := make([]int, len(pends))
		for len(ops) < 2*len(pends) {
			j := rng.Intn(len(pends))
			if emitted[j] == 0 {
				ops = append(ops, pends[j].r)
				emitted[j] = 1
			} else if emitted[j] == 1 {
				ops = append(ops, pends[j].w)
				emitted[j] = 2
			}
		}
		logs = append(logs, oplog.NewLog(ops...))
	}
	return logs
}

// multiCorpus generates random multi-step logs (q ops per transaction).
func multiCorpus(n, txns, q, items int, seed int64) []*oplog.Log {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"x", "y", "z", "w"}[:items]
	logs := make([]*oplog.Log, 0, n)
	for i := 0; i < n; i++ {
		var ops []oplog.Op
		for t := 1; t <= txns; t++ {
			for o := 0; o < q; o++ {
				ops = append(ops, oplog.NewOp(t, oplog.Kind(rng.Intn(2)), names[rng.Intn(items)]))
			}
		}
		rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
		logs = append(logs, oplog.NewLog(ops...))
	}
	return logs
}

// E1/E16: acceptance (degree of concurrency) of each recognizer over the
// same two-step corpus. The paper's shape: DSR ⊇ TO(3) ∪ TO(1) ⊇ each
// TO class; TO(3+) ⊇ TO(3); 2PL incomparable with the TO classes.
func BenchmarkAcceptanceCensus(b *testing.B) {
	logs := corpus(400, 3, 3, 17)
	recognizers := []struct {
		name string
		fn   func(*oplog.Log) bool
	}{
		{"MT1", func(l *oplog.Log) bool { return engine.Accepts(1, l) }},
		{"MT2", func(l *oplog.Log) bool { return engine.Accepts(2, l) }},
		{"MT3", func(l *oplog.Log) bool { return engine.Accepts(3, l) }},
		{"MT3plus", func(l *oplog.Log) bool { return composite.Accepts(3, l) }},
		{"TO1def4", classify.TO1},
		{"TwoPL", classify.TwoPL},
		{"DSR", classify.DSR},
	}
	for _, r := range recognizers {
		b.Run(r.name, func(b *testing.B) {
			accepted := 0
			total := 0
			for i := 0; i < b.N; i++ {
				l := logs[i%len(logs)]
				if r.fn(l) {
					accepted++
				}
				total++
			}
			b.ReportMetric(float64(accepted)/float64(total), "accept/log")
		})
	}
}

// E6: the Fig. 4 hierarchy census (enumeration + classification of every
// 2-transaction two-step log; -short for CI speed, the full 3-txn census
// runs in cmd/mthier).
func BenchmarkHierarchyCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := enumerate.RunCensus(2, []string{"x", "y"})
		if c.Total != 48 {
			b.Fatal("census broken")
		}
	}
}

// E10: MT(k) recognizes a log in O(nqk) — scheduling cost must grow
// linearly in each of n (transactions), q (operations) and k (vector
// size). ns/op across the sweeps exposes the shape.
func BenchmarkMTkScaling(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		logs := multiCorpus(8, n, 3, 4, 23)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := engine.NewScheduler(engine.Options{K: 5})
				s.AcceptLog(logs[i%len(logs)])
			}
		})
	}
	for _, q := range []int{2, 4, 8, 16} {
		logs := multiCorpus(8, 16, q, 4, 29)
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := engine.NewScheduler(engine.Options{K: 5})
				s.AcceptLog(logs[i%len(logs)])
			}
		})
	}
	logsK := multiCorpus(8, 16, 3, 4, 31)
	for _, k := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := engine.NewScheduler(engine.Options{K: k})
				s.AcceptLog(logsK[i%len(logsK)])
			}
		})
	}
}

// E8: vector comparison — sequential O(k) versus the simulated parallel
// O(log k) depth (reported as "steps").
func BenchmarkVectorCompare(b *testing.B) {
	for _, k := range []int{4, 16, 64, 256} {
		a, c := core.NewVector(k), core.NewVector(k)
		// Fully defined vectors differing at the last element: worst case.
		for m := 1; m <= k; m++ {
			a.SetElem(m, int64(m))
			if m < k {
				c.SetElem(m, int64(m))
			} else {
				c.SetElem(m, int64(m+1))
			}
		}
		b.Run(fmt.Sprintf("seq/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.Compare(c)
			}
		})
		b.Run(fmt.Sprintf("parsim/k=%d", k), func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				steps = vecproc.Compare(a, c).ParallelSteps
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// E11: the composite protocol costs O(nqk) like MT(k) (not O(nqk²) as
// naive independent subprotocols would) while accepting the union class.
func BenchmarkComposite(b *testing.B) {
	logs := corpus(100, 3, 3, 37)
	for _, k := range []int{1, 2, 3, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			accepted, total := 0, 0
			for i := 0; i < b.N; i++ {
				s := composite.NewScheduler(composite.Options{K: k})
				ok, _ := s.AcceptLog(logs[i%len(logs)])
				if ok {
					accepted++
				}
				total++
			}
			b.ReportMetric(float64(accepted)/float64(total), "accept/log")
		})
	}
}

// E12: DMT(k) per-operation cost and message overhead by site count.
func BenchmarkDMT(b *testing.B) {
	logs := corpus(50, 4, 3, 41)
	for _, sites := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			var msgs, ops int64
			for i := 0; i < b.N; i++ {
				c := dmt.NewCluster(dmt.Options{K: 3, Sites: sites})
				l := logs[i%len(logs)]
				c.AcceptLog(l)
				msgs += c.Messages()
				ops += int64(l.Len())
			}
			b.ReportMetric(float64(msgs)/float64(ops), "msgs/op")
		})
	}
}

// E13: Section VI-A — chained dependencies through one hot item. The
// interval scheme without compaction exhausts its space after ~62
// midpoint splits; MT(2) encodes any depth. "depth" is the chain length
// achieved before the first abort (capped at 500).
func BenchmarkIntervalVsVector(b *testing.B) {
	b.Run("interval-nocompact", func(b *testing.B) {
		depth := 0
		for i := 0; i < b.N; i++ {
			iv := interval.New(storage.New(), interval.Options{NoCompact: true})
			depth = chainDepth(iv, 500)
		}
		b.ReportMetric(float64(depth), "depth")
	})
	b.Run("interval-compact", func(b *testing.B) {
		depth := 0
		for i := 0; i < b.N; i++ {
			iv := interval.New(storage.New(), interval.Options{})
			depth = chainDepth(iv, 500)
		}
		b.ReportMetric(float64(depth), "depth")
	})
	b.Run("vector", func(b *testing.B) {
		depth := 0
		for i := 0; i < b.N; i++ {
			s := engine.NewScheduler(engine.Options{K: 2})
			d := 0
			for t := 1; t <= 500; t++ {
				if s.Step(oplog.R(t, "hot")).Verdict == core.Reject {
					break
				}
				if s.Step(oplog.W(t, "hot")).Verdict == core.Reject {
					break
				}
				d = t
			}
			depth = d
		}
		b.ReportMetric(float64(depth), "depth")
	})
}

func chainDepth(s sched.Scheduler, max int) int {
	depth := 0
	for t := 1; t <= max; t++ {
		s.Begin(t)
		if _, err := s.Read(t, "hot"); err != nil {
			break
		}
		if err := s.Write(t, "hot", int64(t)); err != nil {
			break
		}
		if err := s.Commit(t); err != nil {
			break
		}
		depth = t
	}
	return depth
}

// E9/E14: acceptance rate by vector size on a conflicting multi-step
// corpus — grows with k and saturates at 2q-1 (Theorem 3; Section VI-B
// guideline (a): more conflict justifies a larger vector).
func BenchmarkVectorSizeSweep(b *testing.B) {
	logs := multiCorpus(300, 3, 3, 3, 43) // q = 3 -> saturation at k = 5
	for _, k := range []int{1, 2, 3, 5, 7, 9} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			accepted, total := 0, 0
			for i := 0; i < b.N; i++ {
				if engine.Accepts(k, logs[i%len(logs)]) {
					accepted++
				}
				total++
			}
			b.ReportMetric(float64(accepted)/float64(total), "accept/log")
		})
	}
}

// runtimeBench runs a workload against a scheduler and reports
// restarts/txn (the abort pressure the protocols trade off).
func runtimeBench(b *testing.B, mk func(*storage.Store) sched.Scheduler, hot bool) {
	cfg := workload.Config{
		Txns: 200, OpsPerTxn: 4, Items: 64, ReadFraction: 0.7, Seed: 7,
	}
	if hot {
		cfg.HotItems = 4
		cfg.HotFraction = 0.8
	}
	specs := cfg.Generate()
	var restarts, txns int64
	for i := 0; i < b.N; i++ {
		rep := sim.Run(sim.Config{
			NewScheduler: mk,
			Specs:        specs,
			Workers:      8,
			MaxAttempts:  500,
			Backoff:      10 * time.Microsecond,
		})
		restarts += rep.Restarts
		txns += int64(rep.Txns)
	}
	b.ReportMetric(float64(restarts)/float64(txns), "restarts/txn")
}

// E17: runtime throughput/abort shape under low and high contention for
// every protocol.
func BenchmarkRuntime(b *testing.B) {
	protos := []struct {
		name string
		mk   func(*storage.Store) sched.Scheduler
	}{
		{"MT7", func(st *storage.Store) sched.Scheduler {
			return sched.NewMT(st, sched.MTOptions{Core: engine.Options{K: 7, StarvationAvoidance: true}})
		}},
		{"MT7mono", func(st *storage.Store) sched.Scheduler {
			return sched.NewMT(st, sched.MTOptions{Core: engine.Options{
				K: 7, StarvationAvoidance: true, MonotonicEncoding: true}})
		}},
		{"2PL", func(st *storage.Store) sched.Scheduler { return lock.NewTwoPL(st) }},
		{"TO1", func(st *storage.Store) sched.Scheduler {
			return tsto.New(st, tsto.Options{ThomasWriteRule: true})
		}},
		{"OCC", func(st *storage.Store) sched.Scheduler { return occ.New(st) }},
		{"SGT", func(st *storage.Store) sched.Scheduler { return sgt.New(st) }},
		{"Interval", func(st *storage.Store) sched.Scheduler {
			return interval.New(st, interval.Options{})
		}},
		{"MVMT7", func(st *storage.Store) sched.Scheduler {
			return mvmt.New(st, mvmt.Options{K: 7})
		}},
	}
	for _, p := range protos {
		b.Run("uniform/"+p.name, func(b *testing.B) { runtimeBench(b, p.mk, false) })
	}
	for _, p := range protos {
		b.Run("hotspot/"+p.name, func(b *testing.B) { runtimeBench(b, p.mk, true) })
	}
}

// E15: rollback schemes — immediate write validation (Algorithm 1) versus
// the Section VI-C-2 deferred scheme. Deferred never aborts a committed
// transaction; immediate detects conflicts earlier.
func BenchmarkRollback(b *testing.B) {
	for _, deferred := range []bool{false, true} {
		name := "immediate"
		if deferred {
			name = "deferred"
		}
		b.Run(name, func(b *testing.B) {
			runtimeBench(b, func(st *storage.Store) sched.Scheduler {
				return sched.NewMT(st, sched.MTOptions{
					Core:        engine.Options{K: 7, StarvationAvoidance: true},
					DeferWrites: deferred,
				})
			}, true)
		})
	}
}

// E15b: partial rollback (Section VI-C-1) — operations executed per
// committed transaction with full restarts versus mid-transaction
// resumes, on a contended-tail workload.
func BenchmarkPartialRollback(b *testing.B) {
	for _, partial := range []bool{false, true} {
		name := "full-restart"
		if partial {
			name = "partial-resume"
		}
		b.Run(name, func(b *testing.B) {
			var ops, txns int64
			for i := 0; i < b.N; i++ {
				st := storage.New()
				m := sched.NewMT(st, sched.MTOptions{
					Core: engine.Options{K: 9, StarvationAvoidance: true}})
				rt := &txn.Runtime{
					Sched: m, MaxAttempts: 100,
					PartialRollback: partial, Store: st,
				}
				specs := workload.Config{
					Txns: 50, OpsPerTxn: 5, Items: 8, ReadFraction: 0.8, Seed: 67,
				}.Generate()
				for _, s := range specs {
					res := rt.Exec(s)
					ops += int64(res.OpsExecuted)
					txns++
				}
			}
			b.ReportMetric(float64(ops)/float64(txns), "ops/txn")
		})
	}
}

// E7: the Fig. 5 starvation fix — retries needed for the starving
// transaction with and without the flush-and-reseed rule.
func BenchmarkStarvationFix(b *testing.B) {
	run := func(fix bool) float64 {
		s := engine.NewScheduler(engine.Options{K: 2, StarvationAvoidance: fix})
		s.AcceptLog(oplog.MustParse("W1[x] W2[x] R3[y]"))
		attempts := 0
		for ; attempts < 10; attempts++ {
			d := s.Step(oplog.W(3, "x"))
			if d.Verdict == core.Accept {
				break
			}
			s.Abort(3, d.Blocker)
			s.Step(oplog.R(3, "y"))
		}
		return float64(attempts)
	}
	b.Run("without-fix", func(b *testing.B) {
		var a float64
		for i := 0; i < b.N; i++ {
			a = run(false)
		}
		b.ReportMetric(a, "retries")
	})
	b.Run("with-fix", func(b *testing.B) {
		var a float64
		for i := 0; i < b.N; i++ {
			a = run(true)
		}
		b.ReportMetric(a, "retries")
	})
}

// E18: the Thomas write rule turns obsolete-write aborts into ignored
// writes; accept fraction of a blind-write-heavy corpus with and without.
func BenchmarkThomasWriteRule(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	var logs []*oplog.Log
	for i := 0; i < 200; i++ {
		var ops []oplog.Op
		for t := 1; t <= 3; t++ {
			ops = append(ops, oplog.W(t, []string{"x", "y"}[rng.Intn(2)]))
			ops = append(ops, oplog.W(t, []string{"x", "y"}[rng.Intn(2)]))
		}
		rng.Shuffle(len(ops), func(a, c int) { ops[a], ops[c] = ops[c], ops[a] })
		logs = append(logs, oplog.NewLog(ops...))
	}
	for _, thomas := range []bool{false, true} {
		name := "off"
		if thomas {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			accepted, total := 0, 0
			for i := 0; i < b.N; i++ {
				s := engine.NewScheduler(engine.Options{K: 3, ThomasWriteRule: thomas})
				if ok, _ := s.AcceptLog(logs[i%len(logs)]); ok {
					accepted++
				}
				total++
			}
			b.ReportMetric(float64(accepted)/float64(total), "accept/log")
		})
	}
}

// E4 companion: hierarchical MT(k1,k2) scheduling cost versus flat MT(k)
// on the same logs (group lookups add a constant factor).
func BenchmarkNestedVsFlat(b *testing.B) {
	logs := corpus(100, 4, 3, 59)
	groups := map[int]int{1: 1, 2: 1, 3: 2, 4: 2}
	b.Run("flat-MT2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := engine.NewScheduler(engine.Options{K: 2})
			s.AcceptLog(logs[i%len(logs)])
		}
	})
	b.Run("nested-MT22", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := nested.New2Level(2, 2, groups)
			s.AcceptLog(logs[i%len(logs)])
		}
	})
}

// E2 companion: hot-item right-shifted encoding — fraction of vector
// pairs left incomparable (future flexibility) with and without the
// optimization, over a skewed corpus.
func BenchmarkHotItemEncoding(b *testing.B) {
	rng := rand.New(rand.NewSource(61))
	var logs []*oplog.Log
	for i := 0; i < 100; i++ {
		var ops []oplog.Op
		for t := 1; t <= 4; t++ {
			// Two ops on the hot item, one elsewhere.
			ops = append(ops, oplog.NewOp(t, oplog.Kind(rng.Intn(2)), "hot"))
			ops = append(ops, oplog.NewOp(t, oplog.Kind(rng.Intn(2)), []string{"a", "b", "c"}[rng.Intn(3)]))
		}
		rng.Shuffle(len(ops), func(a, c int) { ops[a], ops[c] = ops[c], ops[a] })
		logs = append(logs, oplog.NewLog(ops...))
	}
	measure := func(opts engine.Options) float64 {
		incomparable, pairs := 0, 0
		for _, l := range logs {
			s := engine.NewScheduler(opts)
			if ok, _ := s.AcceptLog(l); !ok {
				continue
			}
			txns := l.Transactions()
			for a := 0; a < len(txns); a++ {
				for c := a + 1; c < len(txns); c++ {
					rel, _ := s.Vector(txns[a]).Compare(s.Vector(txns[c]))
					pairs++
					if rel == core.Equal || rel == core.Unknown {
						incomparable++
					}
				}
			}
		}
		if pairs == 0 {
			return 0
		}
		return float64(incomparable) / float64(pairs)
	}
	b.Run("normal", func(b *testing.B) {
		var f float64
		for i := 0; i < b.N; i++ {
			f = measure(engine.Options{K: 6})
		}
		b.ReportMetric(f, "incomparable/pair")
	})
	b.Run("hot-shifted", func(b *testing.B) {
		var f float64
		for i := 0; i < b.N; i++ {
			f = measure(engine.Options{K: 6, HotItems: map[string]bool{"hot": true}})
		}
		b.ReportMetric(f, "incomparable/pair")
	})
}

// E3 companion: multiversion extension — read slides instead of read
// aborts under a read-mostly hotspot.
func BenchmarkMVMTReadSlides(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := storage.New()
		m := mvmt.New(st, mvmt.Options{K: 3, MaxVersions: 64})
		// An old reader watches while writers churn the item.
		m.Begin(1000)
		if _, err := m.Read(1000, "seed"); err != nil {
			b.Fatal(err)
		}
		for t := 1; t <= 20; t++ {
			m.Begin(t)
			if err := m.Write(t, "seed", 1); err != nil {
				b.Fatal(err)
			}
			if err := m.Write(t, "x", int64(t)); err != nil {
				b.Fatal(err)
			}
			if err := m.Commit(t); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := m.Read(1000, "x"); err != nil {
			b.Fatal("old read aborted despite multiversioning")
		}
		m.Commit(1000)
	}
}

// E17b: forced-overlap runtime — per-operation think time makes
// transactions genuinely concurrent, the regime where the protocols'
// ordering decisions differ. Here single-valued TO's premature start-time
// ordering produces aborts that the lock/graph protocols avoid.
func BenchmarkRuntimeOverlap(b *testing.B) {
	protos := []struct {
		name string
		mk   func(*storage.Store) sched.Scheduler
	}{
		{"MT7", func(st *storage.Store) sched.Scheduler {
			// Same concessions as the TO baseline: Thomas rule on, and the
			// paper's own line-9 relaxation (Section III-D-2 remark).
			return sched.NewMT(st, sched.MTOptions{Core: engine.Options{
				K: 7, StarvationAvoidance: true, ThomasWriteRule: true, RelaxedReadCheck: true}})
		}},
		{"MT7mono", func(st *storage.Store) sched.Scheduler {
			return sched.NewMT(st, sched.MTOptions{Core: engine.Options{
				K: 7, StarvationAvoidance: true, MonotonicEncoding: true,
				ThomasWriteRule: true, RelaxedReadCheck: true}})
		}},
		{"MT7defer", func(st *storage.Store) sched.Scheduler {
			return sched.NewMT(st, sched.MTOptions{Core: engine.Options{
				K: 7, StarvationAvoidance: true, ThomasWriteRule: true, RelaxedReadCheck: true},
				DeferWrites: true})
		}},
		{"TO1", func(st *storage.Store) sched.Scheduler {
			return tsto.New(st, tsto.Options{ThomasWriteRule: true})
		}},
		{"TO1defer", func(st *storage.Store) sched.Scheduler {
			return tsto.New(st, tsto.Options{ThomasWriteRule: true, DeferWrites: true})
		}},
		{"OCC", func(st *storage.Store) sched.Scheduler { return occ.New(st) }},
		{"SGT", func(st *storage.Store) sched.Scheduler { return sgt.New(st) }},
	}
	specs := workload.Config{
		Txns: 64, OpsPerTxn: 4, Items: 16, ReadFraction: 0.6,
		HotItems: 4, HotFraction: 0.7, Seed: 71,
	}.Generate()
	for _, p := range protos {
		b.Run(p.name, func(b *testing.B) {
			var restarts, txns int64
			for i := 0; i < b.N; i++ {
				rep := sim.Run(sim.Config{
					NewScheduler: p.mk,
					Specs:        specs,
					Workers:      8,
					MaxAttempts:  500,
					Backoff:      20 * time.Microsecond,
					Think:        200 * time.Microsecond,
				})
				restarts += rep.Restarts
				txns += int64(rep.Txns)
			}
			b.ReportMetric(float64(restarts)/float64(txns), "restarts/txn")
		})
	}
}

// E21b: the adaptable-CC extension (Section IV closing remark) — the
// self-tuning scheduler converges toward a workload-appropriate k.
// Reported metric: the k it settles on.
func BenchmarkAdaptive(b *testing.B) {
	for _, contended := range []bool{false, true} {
		name := "quiet"
		cfg := workload.Config{Txns: 300, OpsPerTxn: 3, Items: 256, ReadFraction: 0.8, Seed: 97}
		if contended {
			name = "contended"
			cfg.Items = 8
			cfg.ReadFraction = 0.4
		}
		specs := cfg.Generate()
		b.Run(name, func(b *testing.B) {
			finalK := 0
			for i := 0; i < b.N; i++ {
				var a *adaptive.Adaptive
				sim.Run(sim.Config{
					NewScheduler: func(st *storage.Store) sched.Scheduler {
						a = adaptive.New(st, adaptive.Options{
							InitialK: 3, MinK: 1, MaxK: 9, Window: 32,
							Core: engine.Options{StarvationAvoidance: true},
						})
						return a
					},
					Specs:       specs,
					Workers:     8,
					MaxAttempts: 300,
					Backoff:     10 * time.Microsecond,
				})
				finalK = a.K()
			}
			b.ReportMetric(float64(finalK), "final-k")
		})
	}
}

// E23a: raw write-ahead-log cost — the journal+Wait path in isolation,
// per sync policy. Concurrency is the group-commit batch-size lever: a
// flush leader gathers whatever is in flight, so 1/8/64 concurrent
// committers yield batches of roughly that size. Reported metric:
// records amortized per fsync (the Taurus-style batching win).
func BenchmarkWALAppend(b *testing.B) {
	for _, pol := range []wal.SyncPolicy{wal.SyncGroup, wal.SyncAlways, wal.SyncNone} {
		for _, writers := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/writers=%d", pol, writers), func(b *testing.B) {
				w, _, err := wal.Open(wal.Options{Dir: b.TempDir(), Sync: pol})
				if err != nil {
					b.Fatal(err)
				}
				st := storage.New()
				w.Attach(st, nil)
				var next atomic.Int64
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < writers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							id := next.Add(1)
							if id > int64(b.N) {
								return
							}
							st.ApplyTxn(int(id), map[string]int64{"x": id})
							if err := w.Wait(int(id)); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				if s := w.Stats(); s.Syncs.Value() > 0 {
					b.ReportMetric(s.BatchRecords.Mean(), "recs/fsync")
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// E23b: end-to-end durable commit latency — the runtime workload with
// no log at all, then under each sync policy. The volatile/wal-none
// gap is the journaling overhead; wal-none/wal-group is the batched
// fsync; wal-group/wal-always is what group commit saves.
func BenchmarkDurableCommit(b *testing.B) {
	specs := workload.Config{
		Txns: 64, OpsPerTxn: 4, Items: 32, ReadFraction: 0.5, Seed: 83,
	}.Generate()
	newSched := func(st *storage.Store) sched.Scheduler {
		return sched.NewMT(st, sched.MTOptions{
			Core:        engine.Options{K: 7, StarvationAvoidance: true},
			DeferWrites: true,
		})
	}
	run := func(b *testing.B, mkWAL func() *wal.Options) {
		var lat float64
		for i := 0; i < b.N; i++ {
			cfg := sim.Config{
				NewScheduler: newSched, Specs: specs, Workers: 8,
				MaxAttempts: 500, Backoff: 20 * time.Microsecond,
			}
			if mkWAL != nil {
				cfg.WAL = mkWAL()
			}
			rep := sim.Run(cfg)
			if rep.Durable != rep.Committed {
				b.Fatalf("durable=%d != committed=%d", rep.Durable, rep.Committed)
			}
			lat += rep.Latency.Mean()
		}
		b.ReportMetric(lat/float64(b.N)/1e3, "µs/txn")
	}
	b.Run("volatile", func(b *testing.B) { run(b, nil) })
	for _, pol := range []wal.SyncPolicy{wal.SyncNone, wal.SyncGroup, wal.SyncAlways} {
		pol := pol
		b.Run("wal-"+pol.String(), func(b *testing.B) {
			run(b, func() *wal.Options { return &wal.Options{Dir: b.TempDir(), Sync: pol} })
		})
	}
}

// E11b: the Fig. 9/10 shared-table composite versus running the
// subprotocols independently — the paper's O(nqk) vs O(nqk²) point.
func BenchmarkSharedComposite(b *testing.B) {
	logs := corpus(100, 3, 3, 37)
	for _, k := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("plain/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := composite.NewScheduler(composite.Options{K: k})
				s.AcceptLog(logs[i%len(logs)])
			}
		})
		b.Run(fmt.Sprintf("shared/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := composite.NewSharedScheduler(k)
				s.AcceptLog(logs[i%len(logs)])
			}
		})
	}
}

// E24: the striped MT(k) adapter versus the coarse global-mutex
// reference. With StoreLatency=0 the two mostly measure protocol
// overhead (on one CPU the striped adapter's extra latching is pure
// cost); with a simulated per-access store latency the coarse adapter
// serializes every sleep under its global mutex while the striped one
// overlaps sleeps on disjoint items — the lock-granularity effect.
// cmd/mtbench runs the full sweep; this keeps a sample in the suite.
func BenchmarkStripedScheduler(b *testing.B) {
	mkCoarse := func(st *storage.Store) sched.Scheduler {
		return sched.NewMT(st, sched.MTOptions{Core: engine.Options{K: 7, StarvationAvoidance: true}})
	}
	mkStriped := func(st *storage.Store) sched.Scheduler {
		return sched.NewMTStriped(st, sched.MTOptions{Core: engine.Options{K: 7, StarvationAvoidance: true}})
	}
	specs := workload.Config{
		Txns: 200, OpsPerTxn: 4, Items: 1024, ReadFraction: 0.7, Seed: 7,
	}.Generate()
	run := func(b *testing.B, mk func(*storage.Store) sched.Scheduler, lat time.Duration) {
		var committed int64
		for i := 0; i < b.N; i++ {
			rep := sim.Run(sim.Config{
				NewScheduler: mk,
				Specs:        specs,
				Workers:      8,
				MaxAttempts:  500,
				Backoff:      10 * time.Microsecond,
				StoreLatency: lat,
			})
			committed += rep.Committed
		}
		b.ReportMetric(float64(committed)/float64(b.N), "committed/run")
	}
	for _, c := range []struct {
		name string
		lat  time.Duration
	}{{"free-store", 0}, {"iolat=20µs", 20 * time.Microsecond}} {
		b.Run(c.name+"/coarse", func(b *testing.B) { run(b, mkCoarse, c.lat) })
		b.Run(c.name+"/striped", func(b *testing.B) { run(b, mkStriped, c.lat) })
	}

	// Steady-state hot path (the tentpole metric: make alloc-gate pins
	// these at 0 allocs/op via bench/alloc_budget.json). Transaction ids
	// cycle through a window so entries are constantly reclaimed and
	// recycled through the pool — the regime where interning, the dense
	// stripe tables and pooled entries must not allocate.
	stepBench := func(kind byte) func(*testing.B) {
		return func(b *testing.B) {
			eng := engine.NewStriped(engine.Options{K: 7, StarvationAvoidance: true})
			lt := eng.Latches()
			ids := make([]int32, 512)
			for i := range ids {
				ids[i] = eng.ItemID(fmt.Sprintf("i%04d", i))
			}
			n := 0
			iter := func() {
				n++
				t := 1 + n%4096
				id := ids[n%len(ids)]
				stripe := lt.StripeOfID(id)
				lt.LockStripe(stripe)
				var v core.Verdict
				var blocker int
				switch {
				case kind == 'r' || (kind == 'm' && n&1 == 0):
					v, blocker = eng.StepReadID(t, id)
				default:
					v, blocker = eng.StepWriteID(t, id)
				}
				lt.UnlockStripe(stripe)
				if v == core.Reject {
					eng.Abort(t, blocker)
				} else if n%4 == 3 {
					eng.Commit(t)
				}
			}
			for i := 0; i < 20000; i++ {
				iter() // warm the intern table, stripe slices, entry pool
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				iter()
			}
		}
	}
	b.Run("steady-step/read", stepBench('r'))
	b.Run("steady-step/write", stepBench('w'))
	b.Run("steady-step/mixed", stepBench('m'))

	// Whole-transaction steady state through the runtime adapter and the
	// store (deferred mode): Begin + Read + Write + Commit per op.
	b.Run("steady-txn/deferred", func(b *testing.B) {
		store := storage.New()
		m := sched.NewMTStriped(store, sched.MTOptions{
			Core:        engine.Options{K: 7, StarvationAvoidance: true},
			DeferWrites: true,
		})
		items := make([]string, 64)
		for i := range items {
			items[i] = fmt.Sprintf("x%03d", i)
		}
		n := 0
		iter := func() {
			n++
			id := 1 + n%4096
			m.Begin(id)
			x := items[n%len(items)]
			if _, err := m.Read(id, x); err != nil {
				m.Abort(id)
				return
			}
			if err := m.Write(id, x, int64(n)); err != nil {
				m.Abort(id)
				return
			}
			_ = m.Commit(id)
		}
		for i := 0; i < 20000; i++ {
			iter()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			iter()
		}
	})
}

// BenchmarkRuntimeExec is the runtime layer's steady state: one
// conflict-free transaction (read one item, write another) per op
// through txn.Runtime over the striped MT adapter, serially, with ids
// cycling through a window so scheduler entries are recycled. What it
// costs beyond steady-txn is the runtime's own per-transaction state;
// make alloc-gate budgets it in allocs/op and B/op.
func BenchmarkRuntimeExec(b *testing.B) {
	store := storage.New()
	rt := &txn.Runtime{
		Sched:   sched.NewMTStriped(store, sched.MTOptions{Core: engine.Options{K: 7, StarvationAvoidance: true}}),
		Backoff: 10 * time.Microsecond,
	}
	specs := make([]txn.Spec, 4096)
	for i := range specs {
		specs[i] = txn.Spec{ID: 1 + i, Ops: []txn.Op{
			txn.R(fmt.Sprintf("x%03d", i%64)),
			txn.W(fmt.Sprintf("y%03d", i%64)),
		}}
	}
	n := 0
	iter := func() {
		res := rt.Exec(specs[n%len(specs)])
		if !res.Committed || res.Attempts != 1 {
			b.Fatalf("serial conflict-free txn did not commit first time: %+v", res)
		}
		n++
	}
	for i := 0; i < 20000; i++ {
		iter() // warm the intern table, stripe slices, entry pool
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
}

// BenchmarkRuntimeRetry is the runtime layer's settled-retry path: one
// transaction per op through txn.Runtime over the striped MT adapter,
// serially, whose first attempt the relative "+1" encoding rejects
// (EXPERIMENTS.md finding 1) and whose retry commits. Each spec reads a
// cold item last read 64 transactions ago, which orders it just past
// that old reader, then the hot item h, whose last reader is the
// previous transaction with a later first element: the read is
// rejected by a transaction that has already committed, the starvation
// fix reseeds past it, and the retry commits. The retry does not sleep,
// so a 1 s Backoff would show in ns/op if it did; make alloc-gate
// budgets the path in allocs/op and B/op.
func BenchmarkRuntimeRetry(b *testing.B) {
	store := storage.New()
	rt := &txn.Runtime{
		Sched:   sched.NewMTStriped(store, sched.MTOptions{Core: engine.Options{K: 7, StarvationAvoidance: true}}),
		Backoff: time.Second,
	}
	specs := make([]txn.Spec, 4096)
	for i := range specs {
		specs[i] = txn.Spec{ID: 1 + i, Ops: []txn.Op{
			txn.R(fmt.Sprintf("c%03d", i%64)),
			txn.R("h"),
			txn.W("h"),
		}}
	}
	// Two readers of h in a row give h a reader ordered past every
	// cold item's: <2> against <0>. Each committed retry is reseeded
	// past the column-1 clock, which keeps it that way.
	for id := len(specs) + 1; id <= len(specs)+2; id++ {
		rt.Exec(txn.Spec{ID: id, Ops: []txn.Op{txn.R("h"), txn.W("h")}})
	}
	n := 0
	iter := func() {
		res := rt.Exec(specs[n%len(specs)])
		if !res.Committed || res.Attempts != 2 {
			b.Fatalf("txn %d: want one settled reject then a commit: %+v", n, res)
		}
		n++
	}
	for i := 0; i < 20000; i++ {
		iter() // warm the intern table, stripe slices, entry pool
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
}
