package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/workload"
)

// endToEndMetrics computes the untraced run's metrics (all but
// heap_live_mb, which is sampled last) into m. Goodput and latency are
// medians over the window's one-second buckets (txns fall in the bucket
// they completed in), so a stall of a second or two shows in the
// spread of the buckets rather than in the result. A bucket's goodput
// is its completions over the time between its first and last one, so
// an open loop below capacity reads its measured rate rather than a
// whole count. Per-txn costs are per committed txn of the whole window.
func endToEndMetrics(m map[string]float64, s *system, w *window, t *tally, b, a snap, st setupTimes, out io.Writer) {
	c := float64(t.committed())
	nb := max(1, int(w.elapsed/time.Second))
	type bucket struct {
		lat         []int64
		first, last int64 // completion times
	}
	buckets := make([]bucket, nb)
	for i, done := range t.done {
		bk := &buckets[min(nb-1, int(done/int64(time.Second)))]
		if len(bk.lat) == 0 || done < bk.first {
			bk.first = done
		}
		bk.last = max(bk.last, done)
		bk.lat = append(bk.lat, t.lat[i])
	}
	var rates, p50s, p90s, p99s []float64
	minN := len(t.lat)
	for k, bk := range buckets {
		lat := bk.lat
		sortInt64s(lat)
		rate := float64(len(lat))
		if k == nb-1 {
			rate /= (w.elapsed - time.Duration(nb-1)*time.Second).Seconds()
		}
		if len(lat) > 1 && bk.last > bk.first {
			rate = float64(len(lat)-1) / time.Duration(bk.last-bk.first).Seconds()
		}
		rates = append(rates, rate)
		p50s = append(p50s, float64(percentile(lat, 50))/1e3)
		p90s = append(p90s, float64(percentile(lat, 90))/1e3)
		p99s = append(p99s, float64(percentile(lat, 99))/1e3)
		minN = min(minN, len(lat))
	}
	m["goodput_tps"] = median(rates)
	m["latency_p50_us"] = median(p50s)
	m["latency_p90_us"] = median(p90s)
	m["attempts_per_commit"] = ratio(float64(t.attempts), c)
	m["committed_share"] = ratio(c, float64(t.offered))
	m["alloc_bytes_per_txn"] = ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), c)
	m["allocs_per_txn"] = ratio(float64(a.mem.Mallocs-b.mem.Mallocs), c)
	m["cpu_us_per_txn"] = ratio(float64(a.cpu-b.cpu)/1e3, c)
	m["setup_s"] = st.total

	failed := t.kinds[kindGaveUp] + t.kinds[kindShed] + t.kinds[kindDeadline] + t.kinds[kindInconsistent]
	fmt.Fprintf(out, "window: %.3f s, offered %d, committed %d, gave-up %d, shed %d, deadline-miss %d, failed_share %.4f\n",
		w.elapsed.Seconds(), t.offered, t.committed(), t.kinds[kindGaveUp], t.kinds[kindShed], t.kinds[kindDeadline],
		ratio(float64(failed), float64(t.offered)))
	origin := "start"
	if s.def.Open {
		origin = "due time"
	}
	fmt.Fprintf(out, "goodput, latency: medians of %d one-second buckets; %d committed txns, at least %d a bucket (%d beyond its p90), timed from each txn's %s\n",
		nb, len(t.lat), minN, minN/10, origin)
	fmt.Fprintf(out, "latency p99 (median over buckets, not a bounded metric): %.1f us\n", median(p99s))
	fmt.Fprintf(out, "window totals: goodput %.1f txn/s over %.3f s; per bucket:", c/w.elapsed.Seconds(), w.elapsed.Seconds())
	for _, r := range rates {
		fmt.Fprintf(out, " %.0f", r)
	}
	fmt.Fprintln(out)
	harness(s, w, t, out)
}

// harness reports how much of the window the harness itself took:
// closed-loop clients' share of wall time inside ExecCtx, or the open
// loop generator's lateness.
func harness(s *system, w *window, t *tally, out io.Writer) (execShare, lateP99 float64) {
	if s.def.Open {
		sortInt64s(w.lateness)
		lateP99 = float64(percentile(w.lateness, 99)) / 1e3
		fmt.Fprintf(out, "harness: generator lateness p50 %.1f us, p99 %.1f us over %d txns\n",
			float64(percentile(w.lateness, 50))/1e3, lateP99, len(w.lateness))
		return 0, lateP99
	}
	execShare = ratio(float64(t.execNs), float64(w.clientWall))
	fmt.Fprintf(out, "harness: clients inside ExecCtx %.2f%% of wall time\n", 100*execShare)
	return execShare, 0
}

// layerMetrics computes the traced run's per-layer metrics into m.
// Span-derived metrics cover the traced slices; program counters (WAL,
// admission, GC, store) are deltas over the whole window.
func layerMetrics(m map[string]float64, s *system, tr *tracer, w *window, t *tally, b, a snap, flush [2]float64, st setupTimes, out io.Writer) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := float64(tr.n)
	us := func(ns int64) float64 { return ratio(float64(ns)/1e3, n) }
	m["txn.exec_us_mean"] = us(tr.execNs)
	m["txn.self_us_per_txn"] = us(tr.selfNs)
	m["txn.attempts"] = float64(tr.attempts)
	m["txn.retries"] = float64(tr.retries)
	m["sched.busy_us_per_txn"] = us(tr.schedNs)
	m["admit.wait_us_mean"] = us(tr.admitNs)
	m["wal.wait_us_mean"] = us(tr.walNs)
	sortInt64s(tr.walWaits)
	m["wal.wait_us_p99"] = float64(percentile(tr.walWaits, 99)) / 1e3

	var ops, rejected int64
	for op, name := range opNames {
		st := &tr.ops[op]
		m["sched."+name+".calls"] = float64(st.calls.Load())
		m["sched."+name+".ns_mean"] = ratio(float64(st.ns.Load()), float64(st.calls.Load()))
		if op == opRead || op == opWrite || op == opCommit {
			m["sched."+name+".rejects"] = float64(st.rejects.Load())
			ops += st.calls.Load()
			rejected += st.rejects.Load()
		}
	}
	m["sched.accept_ratio"] = ratio(float64(ops-rejected), float64(ops))
	for c, name := range causeNames {
		m["abort."+name] = float64(tr.causes[c].Load())
	}

	tracedCommits := float64(tr.ops[opCommit].calls.Load() - tr.ops[opCommit].rejects.Load())
	m["engine.live_vectors_end"] = float64(s.mt.Striped().LiveVectors())
	m["engine.stale_retries"] = float64(w.staleRetries)
	m["engine.kth_span_per_txn"] = ratio(float64(w.kthSpan), tracedCommits)

	commits := float64(a.version - b.version)
	m["storage.commits_applied"] = commits
	m["storage.items_per_commit"] = ratio(float64(tr.itemsCommit.Load()), tracedCommits)
	m["storage.journal_ns_mean"] = ratio(float64(tr.journalNs.Load()), float64(tr.journalN.Load()))

	syncs := float64(a.wal.syncs - b.wal.syncs)
	m["wal.flush_us_p50"] = flush[0]
	m["wal.flush_us_p99"] = flush[1]
	m["wal.fsyncs"] = syncs
	m["wal.records_per_fsync"] = ratio(float64(a.wal.appends-b.wal.appends), syncs)
	m["wal.bytes_per_commit"] = ratio(float64(a.wal.bytes-b.wal.bytes), commits)
	m["wal.bytes_per_user_byte"] = ratio(float64(a.wal.bytes-b.wal.bytes), userBytes(s, t))
	m["wal.checkpoints"] = float64(a.wal.checkpoints - b.wal.checkpoints)

	m["admit.shed"] = float64(a.admit.Shed - b.admit.Shed)
	m["admit.limit_end"] = float64(a.admit.Limit)
	m["admit.max_inflight"] = float64(a.admit.MaxInFlight)
	m["admit.increases"] = float64(a.admit.Increases - b.admit.Increases)
	m["admit.decreases"] = float64(a.admit.Decreases - b.admit.Decreases)
	m["admit.gate_waits"] = float64(a.admit.GateWaits - b.admit.GateWaits)
	m["admit.elder_waits"] = float64(a.admit.ElderWaits - b.admit.ElderWaits)
	m["admit.storm_trips"] = float64(a.admit.StormTrips - b.admit.StormTrips)

	m["gc.cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	m["gc.pause_us_total"] = float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e3
	m["setup.generate_ms"] = st.generate * 1e3
	m["setup.preload_ms"] = st.preload * 1e3
	m["setup.wal_open_ms"] = st.walOpen * 1e3

	// Tracing overhead: goodput of traced slices against untraced ones.
	plainTime := w.elapsed - w.tracedTime
	gPlain := ratio(float64(w.modes[0].committed()), plainTime.Seconds())
	gTraced := ratio(float64(w.modes[1].committed()), w.tracedTime.Seconds())
	m["trace.overhead"] = ratio(gTraced, gPlain)
	m["harness.exec_share"], m["harness.gen_lateness_p99_us"] = harness(s, w, t, out)

	fmt.Fprintf(out, "trace: %d traced txns; goodput untraced %.0f txn/s, traced %.0f txn/s\n", tr.n, gPlain, gTraced)
	sum := m["admit.wait_us_mean"] + m["sched.busy_us_per_txn"] + m["wal.wait_us_mean"] + m["txn.self_us_per_txn"]
	fmt.Fprintf(out, "breakdown: exec %.3f us = admit wait %.3f + sched busy %.3f + wal wait %.3f + runtime self %.3f (sum %.3f; %d txns with self < -1us)\n",
		m["txn.exec_us_mean"], m["admit.wait_us_mean"], m["sched.busy_us_per_txn"], m["wal.wait_us_mean"], m["txn.self_us_per_txn"], sum, tr.negSelf)
}

// userBytes is the payload the window's committed txns asked to write:
// item name plus an 8-byte value per written item.
func userBytes(s *system, t *tally) float64 {
	var n int
	for _, id := range t.ids {
		for _, x := range s.writeSet(int(id)) {
			n += len(workload.ItemName(x)) + 8
		}
	}
	return float64(n)
}
