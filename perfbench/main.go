// Command perfbench is the repository's benchmark. It runs one workload
// through txn.Runtime over the striped MT(7) scheduler, checks the
// program's outputs, and prints every end-to-end metric (or, with
// --trace 1, every per-layer metric) by name with its unit. The last
// line of standard output is the JSON result. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/admit"
)

const (
	// setupRepeats is how many times a run builds its system; setup_s is
	// the median.
	setupRepeats = 7
	// warmup runs before the timed window (not measured, but checked).
	warmup = 500 * time.Millisecond
	// minExecShare is the least share of wall time closed-loop clients
	// must spend inside ExecCtx for the numbers to measure the program
	// rather than the harness.
	minExecShare = 0.9
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: uniform-rw, durable-writes or hot-overload")
	seed := fl.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fl.Int("seconds", 10, "length of the timed window in seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workdir := fl.String("workdir", ".bench_build/work", "directory for the traced run's span files")
	commit := fl.String("commit", "unavailable", "git commit of the measured source, for the provenance record")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	def, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if !def.Open && def.Clients > nproc {
		fmt.Fprintf(stderr, "perfbench: %s runs %d closed-loop clients but nproc is %d; refusing to oversubscribe\n",
			def.Name, def.Clients, nproc)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "provenance nproc=%d gomaxprocs=%d go=%s commit=%s source_sha256=%s seed=%d seconds=%d trace=%d\n",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), *commit, sourceDigest(), *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "workload %s: %s\n", def.Name, def.params())

	res, err := measure(def, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	for _, f := range res.failures {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", f)
	}
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.failures) > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// result is the JSON object on the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type measured struct {
	out      result
	failures failures
}

// snap is the process and program state at one edge of the window.
type snap struct {
	mem     runtime.MemStats
	cpu     time.Duration
	version int64
	wal     walSnap
	admit   admit.Stats
}

type walSnap struct{ appends, syncs, bytes, checkpoints int64 }

func takeSnap(s *system) snap {
	var sn snap
	runtime.ReadMemStats(&sn.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		sn.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	sn.version = s.store.Version()
	if s.wal != nil {
		st := s.wal.Stats()
		sn.wal = walSnap{st.Appends.Value(), st.Syncs.Value(), st.Bytes.Value(), st.Checkpoints.Value()}
	}
	if s.ctrl != nil {
		sn.admit = s.ctrl.Stats()
	}
	return sn
}

// measure sets up the workload, runs the warm-up and the timed window,
// checks the outputs and computes the metrics.
func measure(def workloadDef, seed int64, d time.Duration, traced bool, workdir string, out io.Writer) (*measured, error) {
	sys, st, err := setupMedian(def, seed, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	fmt.Fprintf(out, "setup: median of %d: %.4f s (generate %.1f ms, preload %.1f ms, wal open %.1f ms); each: %.4f\n",
		len(st.all), st.total, st.generate*1e3, st.preload*1e3, st.walOpen*1e3, st.all)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r := newRunner(sys, tr)
	before := sys.store.State()
	warm := r.run(warmup, false, 0)
	capHint := int(float64(warm.all().offered)/warmup.Seconds()*d.Seconds()*1.5) + 1024
	if sys.wal != nil {
		sys.wal.Stats().FsyncNs.Reset()
	}
	b := takeSnap(sys)
	win := r.run(d, traced, capHint)
	a := takeSnap(sys)
	var flush [2]float64 // p50, p99 of write+fsync per flush batch (µs)
	if sys.wal != nil {
		fs := sys.wal.Stats().FsyncNs.Snapshot()
		flush = [2]float64{float64(fs.Percentile(50)) / 1e3, float64(fs.Percentile(99)) / 1e3}
	}
	waitStrays(def)

	ver, vfail := verifyPass(r)
	all := warm.all()
	wall := win.all()
	all.merge(&wall)
	all.merge(&ver)
	fails, late := checkRun(sys, &all, before, int(r.nextID.Load()))
	fails = append(fails, vfail...)
	if share := ratio(float64(wall.execNs), float64(win.clientWall)); !def.Open && share < minExecShare {
		fails.addf("harness coverage: clients spent %.1f%% of wall time inside ExecCtx, below %.0f%%", 100*share, 100*minExecShare)
	}
	fmt.Fprintf(out, "checks: %d txns (warm-up %d, window %d, verification %d); committed %d, gave-up %d, shed %d, deadline-miss %d (of which committed late: %d)\n",
		all.offered, warm.all().offered, wall.offered, ver.offered,
		all.kinds[kindCommitted], all.kinds[kindGaveUp], all.kinds[kindShed], all.kinds[kindDeadline], late)

	m := map[string]float64{}
	if traced {
		layerMetrics(m, sys, tr, win, &wall, b, a, flush, st, out)
		path := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", def.Name, seed))
		n, err := tr.writeSpans(path)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace: %d spans of %d txns written to %s\n", n, min(len(tr.kept), retainTxns), path)
	} else {
		endToEndMetrics(m, sys, win, &wall, b, a, st, out)
	}
	attempted, failed := wall.offered, wall.kinds[kindGaveUp]+wall.kinds[kindInconsistent]
	// Live heap of the program alone: drop the harness's inputs and
	// sample buffers, then collect.
	warm, win, ver, all, wall = nil, nil, tally{}, tally{}, tally{}
	sys.ring = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(sys)
	if !traced {
		m["heap_live_mb"] = float64(ms.HeapAlloc) / 1e6
	}
	if sys.wal != nil {
		fails = append(fails, checkRecovery(sys)...)
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := &measured{failures: fails}
	res.out = result{
		Correct:   len(fails) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	for _, md := range defs {
		v, ok := m[md.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", md.Name)
		}
		res.out.Metrics[md.Name] = metricValue{Value: v, Unit: md.Unit}
		fmt.Fprintf(out, "metric %-32s %14.4f %s\n", md.Name, v, md.Unit)
	}
	return res, nil
}

// sourceDigest hashes the Go sources and module files under the working
// directory (the checkout root), skipping hidden directories such as the
// build directory. It identifies the measured code where no git
// metadata is available.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
