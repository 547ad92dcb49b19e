// Command allocgate enforces allocs/op and B/op budgets over `go test
// -benchmem` output. It reads benchmark result lines from stdin (or a
// file), matches each benchmark name against the patterns in a budget
// file, and fails — exit status 1 — if any matched benchmark exceeds its
// budget, or if a budget pattern matched no benchmark at all (so a
// renamed benchmark cannot silently escape its gate).
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkStripedScheduler' -benchmem -benchtime 100x . | allocgate -budget bench/alloc_budget.json
//
// The budget file maps a Go regexp (anchored on both ends) to the
// maximum allowed allocs/op ("budgets") and, optionally, to the maximum
// allowed B/op ("bytes"). An allocation count alone misses one large
// allocation replacing a small one; the byte budget catches it:
//
//	{"budgets": {"BenchmarkStripedScheduler/steady-step/.*": 0},
//	 "bytes":   {"BenchmarkRuntimeExec": 512}}
//
// Benchmark names are compared with their trailing GOMAXPROCS suffix
// ("-8") stripped, matching what `go test` prints rather than what the
// source declares.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// budgetFile is the on-disk schema of -budget.
type budgetFile struct {
	// Budgets maps an anchored regexp over benchmark names to the
	// maximum allocs/op allowed for every benchmark it matches.
	Budgets map[string]float64 `json:"budgets"`
	// Bytes maps an anchored regexp over benchmark names to the maximum
	// B/op allowed for every benchmark it matches.
	Bytes map[string]float64 `json:"bytes"`
}

// result is one parsed benchmark output line.
type result struct {
	name   string
	allocs float64
	bytes  float64
}

var (
	// benchLine matches e.g.
	// "BenchmarkStripedScheduler/steady-step/read-8   50000   117.5 ns/op   0 B/op   0 allocs/op"
	benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)
	// procSuffix is the trailing "-<GOMAXPROCS>" go test appends.
	procSuffix = regexp.MustCompile(`-\d+$`)
)

func main() {
	budgetPath := flag.String("budget", "bench/alloc_budget.json", "path to the allocs/op and B/op budget file")
	input := flag.String("input", "-", "benchmark output to check ('-' for stdin)")
	flag.Parse()

	bf, err := loadBudget(*budgetPath)
	if err != nil {
		fatal(err)
	}
	var r io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	results, err := parseResults(r)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found (did the bench run fail, or was -benchmem missing?)"))
	}

	failures := check(bf, results, os.Stdout)
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "allocgate: %d violation(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("allocgate: all budgets satisfied")
}

func loadBudget(path string) (*budgetFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf budgetFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.Budgets) == 0 {
		return nil, fmt.Errorf("%s: no budgets defined", path)
	}
	return &bf, nil
}

// parseResults extracts (name, allocs/op, B/op) triples from go test
// output. Lines without both fields (custom-metric-only lines, PASS,
// headers, runs without -benchmem) are skipped.
func parseResults(r io.Reader) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		allocs, ok := unitField(m[2], "allocs/op")
		if !ok {
			continue
		}
		bytes, ok := unitField(m[2], "B/op")
		if !ok {
			continue
		}
		out = append(out, result{name: procSuffix.ReplaceAllString(m[1], ""), allocs: allocs, bytes: bytes})
	}
	return out, sc.Err()
}

// unitField pulls the value preceding unit (e.g. "allocs/op") out of
// the metrics tail of a benchmark line.
func unitField(tail, unit string) (float64, bool) {
	fields := strings.Fields(tail)
	for i, f := range fields {
		if f == unit && i > 0 {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

// check compares results against both budget tables and returns the
// total number of violations.
func check(bf *budgetFile, results []result, w io.Writer) int {
	failures := checkUnit("allocs/op", bf.Budgets, results, func(r result) float64 { return r.allocs }, w)
	if len(bf.Bytes) > 0 {
		fmt.Fprintln(w)
		failures += checkUnit("B/op", bf.Bytes, results, func(r result) float64 { return r.bytes }, w)
	}
	return failures
}

// checkUnit compares one measured unit against its budgets, prints one
// table row per matched benchmark, and returns the number of
// violations. A budget pattern that matches nothing is itself a
// violation.
func checkUnit(unit string, budgets map[string]float64, results []result, value func(result) float64, w io.Writer) int {
	patterns := make([]string, 0, len(budgets))
	for p := range budgets {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns) // deterministic output

	failures := 0
	fmt.Fprintf(w, "%-58s %12s %12s %s\n", "benchmark", unit, "budget", "verdict")
	for _, p := range patterns {
		re, err := regexp.Compile("^(?:" + p + ")$")
		if err != nil {
			fmt.Fprintf(w, "%-58s %12s %12s BAD PATTERN (%v)\n", p, "-", "-", err)
			failures++
			continue
		}
		limit := budgets[p]
		matched := false
		for _, res := range results {
			if !re.MatchString(res.name) {
				continue
			}
			matched = true
			verdict := "ok"
			if value(res) > limit {
				verdict = "FAIL"
				failures++
			}
			fmt.Fprintf(w, "%-58s %12g %12g %s\n", res.name, value(res), limit, verdict)
		}
		if !matched {
			fmt.Fprintf(w, "%-58s %12s %12g UNMATCHED (benchmark missing or renamed)\n", p, "-", limit)
			failures++
		}
	}
	return failures
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "allocgate:", err)
	os.Exit(1)
}
