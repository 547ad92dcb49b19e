package main

import (
	"io"
	"strings"
	"testing"
)

const sample = `goos: linux
BenchmarkRuntimeExec-8   	     100	      2329 ns/op	     256 B/op	       2 allocs/op
BenchmarkStripedScheduler/steady-step/read-8   	     100	       117 ns/op	       0 B/op	       0 allocs/op
BenchmarkCustomOnly-8   	     100	       5.0 committed/run
PASS
`

func TestParseResultsReadsBothUnits(t *testing.T) {
	got, err := parseResults(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	want := []result{
		{name: "BenchmarkRuntimeExec", allocs: 2, bytes: 256},
		{name: "BenchmarkStripedScheduler/steady-step/read", allocs: 0, bytes: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCheckEnforcesEachUnit(t *testing.T) {
	results, _ := parseResults(strings.NewReader(sample))
	for _, c := range []struct {
		name string
		bf   budgetFile
		want int
	}{
		{"both within", budgetFile{
			Budgets: map[string]float64{"BenchmarkRuntimeExec": 2},
			Bytes:   map[string]float64{"BenchmarkRuntimeExec": 512},
		}, 0},
		{"allocs over", budgetFile{Budgets: map[string]float64{"BenchmarkRuntimeExec": 1}}, 1},
		{"bytes over", budgetFile{
			Budgets: map[string]float64{"BenchmarkRuntimeExec": 2},
			Bytes:   map[string]float64{"BenchmarkRuntimeExec": 255},
		}, 1},
		{"bytes pattern unmatched", budgetFile{
			Budgets: map[string]float64{"BenchmarkRuntimeExec": 2},
			Bytes:   map[string]float64{"BenchmarkGone": 512},
		}, 1},
	} {
		if got := check(&c.bf, results, io.Discard); got != c.want {
			t.Errorf("%s: %d violations, want %d", c.name, got, c.want)
		}
	}
}
