package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The end-to-end set is printed by
// untraced runs, the per-layer set by traced runs; BENCHMARK.json lists
// the same names (a test keeps the two in step).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricDef{
	{"goodput_tps", "txn/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p90_us", "us", "lower"},
	{"attempts_per_commit", "ratio", "lower"},
	{"committed_share", "share", "higher"},
	{"alloc_bytes_per_txn", "bytes", "lower"},
	{"allocs_per_txn", "count", "lower"},
	{"cpu_us_per_txn", "us", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = func() []metricDef {
	m := []metricDef{
		{"txn.exec_us_mean", "us", "lower"},
		{"txn.self_us_per_txn", "us", "lower"},
		{"txn.attempts", "count", "lower"},
		{"txn.retries", "count", "lower"},
	}
	for _, op := range opNames {
		m = append(m,
			metricDef{"sched." + op + ".calls", "count", "higher"},
			metricDef{"sched." + op + ".ns_mean", "ns", "lower"})
	}
	m = append(m,
		metricDef{"sched.read.rejects", "count", "lower"},
		metricDef{"sched.write.rejects", "count", "lower"},
		metricDef{"sched.commit.rejects", "count", "lower"},
		metricDef{"sched.busy_us_per_txn", "us", "lower"},
		metricDef{"sched.accept_ratio", "ratio", "higher"},
	)
	for _, c := range causeNames {
		m = append(m, metricDef{"abort." + c, "count", "lower"})
	}
	return append(m,
		metricDef{"engine.live_vectors_end", "count", "lower"},
		metricDef{"engine.stale_retries", "count", "lower"},
		metricDef{"engine.kth_span_per_txn", "ratio", "lower"},
		metricDef{"storage.commits_applied", "count", "higher"},
		metricDef{"storage.items_per_commit", "ratio", "lower"},
		metricDef{"storage.journal_ns_mean", "ns", "lower"},
		metricDef{"wal.wait_us_mean", "us", "lower"},
		metricDef{"wal.wait_us_p99", "us", "lower"},
		metricDef{"wal.flush_us_p50", "us", "lower"},
		metricDef{"wal.flush_us_p99", "us", "lower"},
		metricDef{"wal.fsyncs", "count", "lower"},
		metricDef{"wal.records_per_fsync", "ratio", "higher"},
		metricDef{"wal.bytes_per_commit", "bytes", "lower"},
		metricDef{"wal.bytes_per_user_byte", "ratio", "lower"},
		metricDef{"wal.checkpoints", "count", "lower"},
		metricDef{"admit.wait_us_mean", "us", "lower"},
		metricDef{"admit.shed", "count", "lower"},
		metricDef{"admit.limit_end", "count", "higher"},
		metricDef{"admit.max_inflight", "count", "higher"},
		metricDef{"admit.increases", "count", "higher"},
		metricDef{"admit.decreases", "count", "lower"},
		metricDef{"admit.gate_waits", "count", "lower"},
		metricDef{"admit.elder_waits", "count", "lower"},
		metricDef{"admit.storm_trips", "count", "lower"},
		metricDef{"gc.cycles", "count", "lower"},
		metricDef{"gc.pause_us_total", "us", "lower"},
		metricDef{"setup.generate_ms", "ms", "lower"},
		metricDef{"setup.preload_ms", "ms", "lower"},
		metricDef{"setup.wal_open_ms", "ms", "lower"},
		metricDef{"trace.overhead", "ratio", "higher"},
		metricDef{"harness.exec_share", "share", "higher"},
		metricDef{"harness.gen_lateness_p99_us", "us", "lower"},
	)
}()

// metricValue is one reported value as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload leaves idle
// reports zeros, never NaN).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) {
		return 0
	}
	return a / b
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank]
}

func sortInt64s(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }
