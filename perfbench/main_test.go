package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// runWindow sets def up with the given scheduler decorator, runs a short
// window and the verification pass, and returns the checks' failures.
func runWindow(t *testing.T, def workloadDef, wrap func(sched.Scheduler) sched.Scheduler) failures {
	t.Helper()
	sys, err := setup(def, 7, wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	r := newRunner(sys, nil)
	before := sys.store.State()
	w := r.run(200*time.Millisecond, false, 0)
	waitStrays(def)
	ver, f := verifyPass(r)
	all := w.all()
	all.merge(&ver)
	fr, _ := checkRun(sys, &all, before, int(r.nextID.Load()))
	f = append(f, fr...)
	if sys.wal != nil {
		f = append(f, checkRecovery(sys)...)
	}
	return f
}

// dropWrites acknowledges every 25th write without passing it on: the
// txn commits as if the write had been applied.
type dropWrites struct {
	sched.Scheduler
	n atomic.Int64
}

func (d *dropWrites) Write(id int, item string, v int64) error {
	if d.n.Add(1)%25 == 0 {
		return nil
	}
	return d.Scheduler.Write(id, item, v)
}

func TestChecksPassOnEveryWorkload(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.Name, func(t *testing.T) {
			if f := runWindow(t, def, nil); len(f) > 0 {
				t.Fatalf("checks failed: %v", f)
			}
		})
	}
}

func TestChecksCatchDroppedWrite(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.Name, func(t *testing.T) {
			f := runWindow(t, def, func(s sched.Scheduler) sched.Scheduler { return &dropWrites{Scheduler: s} })
			if len(f) == 0 {
				t.Fatal("checks passed although the scheduler dropped accepted writes")
			}
			if !strings.Contains(strings.Join(f, "\n"), "version advanced by") {
				t.Fatalf("no item-version failure among %v", f)
			}
		})
	}
}

// reasons records every abort reason the scheduler returns.
type reasons struct {
	sched.Scheduler
	mu   sync.Mutex
	seen map[string]int
}

func (r *reasons) note(err error) error {
	var ae *sched.AbortError
	if errors.As(err, &ae) {
		r.mu.Lock()
		r.seen[ae.Reason]++
		r.mu.Unlock()
	}
	return err
}

func (r *reasons) Read(id int, item string) (int64, error) {
	v, err := r.Scheduler.Read(id, item)
	return v, r.note(err)
}
func (r *reasons) Write(id int, item string, v int64) error {
	return r.note(r.Scheduler.Write(id, item, v))
}
func (r *reasons) Commit(id int) error { return r.note(r.Scheduler.Commit(id)) }

// TestAbortReasonsClassified fails on any abort reason the workloads
// produce that the classifier puts in abort.other, so a renamed reason
// cannot drop silently out of the cause mix.
func TestAbortReasonsClassified(t *testing.T) {
	rec := &reasons{seen: map[string]int{}}
	for _, def := range workloads {
		runWindow(t, def, func(s sched.Scheduler) sched.Scheduler { rec.Scheduler = s; return rec })
	}
	if len(rec.seen) == 0 {
		t.Fatal("no aborts seen on any workload")
	}
	for reason, n := range rec.seen {
		c := classifyAbort(reason)
		t.Logf("%-45q %6d -> abort.%s", reason, n, causeNames[c])
		if c == causeOther {
			t.Errorf("abort reason %q is not classified", reason)
		}
	}
	if classifyAbort("some new reason") != causeOther {
		t.Error("an unknown reason must classify as other")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if (metricDef{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, endToEnd[i])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, perLayer[i])
		}
	}
}

// TestRunPrintsResult drives the command end to end: the last line is
// the JSON result with every metric of the mode.
func TestRunPrintsResult(t *testing.T) {
	for _, tc := range []struct {
		workload string
		trace    string
		want     []metricDef
	}{
		{"uniform-rw", "0", endToEnd},
		{"hot-overload", "1", perLayer},
	} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", tc.workload, "--seed", "3", "--seconds", "1", "--trace", tc.trace,
			"--workdir", t.TempDir()}, &out, &errOut)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s%s", tc.workload, code, out.String(), errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result: %v", tc.workload, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(tc.want) {
			t.Fatalf("%s: result %+v", tc.workload, res)
		}
		for _, m := range tc.want {
			if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: metric %s missing or with the wrong unit", tc.workload, m.Name)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result for a bad invocation: %s", out.String())
	}
}
