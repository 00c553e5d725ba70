package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU @ 2.0GHz
BenchmarkPlanSweep/Full/P2048         	   50000	     10000 ns/op	        64.00 candidates/op
BenchmarkPlanSweep/Full/P2048         	   50000	     12000 ns/op	        64.00 candidates/op
BenchmarkPlanSweep/Full/P2048         	   50000	     11000 ns/op	        64.00 candidates/op
BenchmarkPlanSweep/Full/P2048-2       	   60000	      9000 ns/op	        64.00 candidates/op
BenchmarkSweepRound-2                 	   40000	     15000 ns/op	    1008 B/op	       3 allocs/op
BenchmarkSweepRound-2                 	   40000	     17000 ns/op	    1008 B/op	       3 allocs/op
PASS
ok  	repro	12.3s
`

// TestSummarise: rows come out per (benchmark, GOMAXPROCS) in first-seen
// order, with the median and interquartile range of ns/op and the
// medians of every other unit.
func TestSummarise(t *testing.T) {
	run, err := summarise(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	want := Run{CPU: "Test CPU @ 2.0GHz", Rows: []Row{
		{Benchmark: "PlanSweep/Full/P2048", Procs: 1, Samples: 3, NsPerOp: 11000, NsPerOpIQR: 1000, Units: map[string]float64{"candidates/op": 64}},
		{Benchmark: "PlanSweep/Full/P2048", Procs: 2, Samples: 1, NsPerOp: 9000, Units: map[string]float64{"candidates/op": 64}},
		{Benchmark: "SweepRound", Procs: 2, Samples: 2, NsPerOp: 16000, NsPerOpIQR: 1000, BytesPerOp: 1008, AllocsPerOp: 3},
	}}
	if !reflect.DeepEqual(run, want) {
		t.Errorf("summarise:\n got %+v\nwant %+v", run, want)
	}
	for _, bad := range []string{"", "PASS\n", "--- FAIL: BenchmarkSweepRound\n" + sample} {
		if _, err := summarise(strings.NewReader(bad)); err == nil {
			t.Errorf("summarise(%q) accepted it", bad)
		}
	}
}

// TestRecord: a run replaces the ledger's run of the same commit and
// is appended after the others.
func TestRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	for _, commit := range []string{"a", "b", "a"} {
		if err := record(path, Run{Commit: commit, Go: "go" + commit}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), `"commit"`); got != 2 || strings.Index(string(data), `"a"`) > strings.Index(string(data), `"b"`) {
		t.Errorf("ledger after a, b, a:\n%s", data)
	}
}
