package main

import (
	"encoding/json"
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
pkg: repro/internal/moo
BenchmarkSweepRound-2                 	   10000	    100000 ns/op
PASS
ok  	repro/internal/moo	1.2s
`

// TestSummarise: rows come out per (package, benchmark, GOMAXPROCS) in
// first-seen order, with the median and interquartile range of ns/op
// and the medians of every other unit.
func TestSummarise(t *testing.T) {
	run, err := summarise(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	want := Run{CPU: "Test CPU @ 2.0GHz", Rows: []Row{
		{Pkg: "repro", Benchmark: "PlanSweep/Full/P2048", Procs: 1, Samples: 3, NsPerOp: 11000, NsPerOpIQR: 1000, Units: map[string]float64{"candidates/op": 64}},
		{Pkg: "repro", Benchmark: "PlanSweep/Full/P2048", Procs: 2, Samples: 1, NsPerOp: 9000, Units: map[string]float64{"candidates/op": 64}},
		{Pkg: "repro", Benchmark: "SweepRound", Procs: 2, Samples: 2, NsPerOp: 16000, NsPerOpIQR: 1000, BytesPerOp: 1008, AllocsPerOp: 3},
		{Pkg: "repro/internal/moo", Benchmark: "SweepRound", Procs: 2, Samples: 1, NsPerOp: 100000},
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

// writeDoc writes a docs/performance.md with an empty block into dir
// and returns its path and the text around the block.
func writeDoc(t *testing.T, dir string) (path, head, tail string) {
	t.Helper()
	head, tail = "# Performance\n\nbefore `the` block\n", "\nafter the block\n"
	path = filepath.Join(dir, "docs", "performance.md")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(head+blockBegin+"stale\n"+blockEnd+tail), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, head, tail
}

// TestRecord: a run replaces the ledger's run of the same commit and
// is appended after the others, and the document's block renders the
// newest run.
func TestRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.json")
	docPath, _, _ := writeDoc(t, dir)
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
	if doc, err := os.ReadFile(docPath); err != nil || !strings.Contains(string(doc), "Commit `b`, gob,") {
		t.Errorf("the block does not render the newest run, b (%v):\n%s", err, doc)
	}
}

// TestRecordRendersBlock: a run lands in the block as a table of one
// line per benchmark, its -cpu rows side by side, and the text around
// the block stays byte-identical. A document without a block leaves the
// ledger as it was.
func TestRecordRendersBlock(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.json")
	docPath, head, tail := writeDoc(t, dir)
	run := Run{Commit: "c0ffee", Go: "go1.24.0", NProc: 2, CPU: "Test CPU", Rows: []Row{
		{Pkg: "repro", Benchmark: "SweepRound", Procs: 2, Samples: 6, NsPerOp: 9409.5, NsPerOpIQR: 781.75, BytesPerOp: 878, AllocsPerOp: 3},
		{Pkg: "repro", Benchmark: "SweepRound", Procs: 1, Samples: 6, NsPerOp: 11160.5, NsPerOpIQR: 732, BytesPerOp: 858.5, AllocsPerOp: 3},
		{Pkg: "repro/internal/moo", Benchmark: "ParetoFront/antichain/n18432", Procs: 1, Samples: 6, NsPerOp: 7.2e8, NsPerOpIQR: 1.5e7, BytesPerOp: 3.2e6, Units: map[string]float64{"z/op": 2, "a/op": 1.5}},
	}}
	if err := record(path, run); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	want := head + blockBegin +
		"Commit `c0ffee`, go1.24.0, 2 × Test CPU. Each figure is the median of a row's samples; brackets hold the interquartile range of time/op.\n\n" +
		"| package | benchmark | time/op at -cpu 1 | time/op at -cpu 2 | B/op | allocs/op | other |\n" +
		"|---|---|--:|--:|--:|--:|---|\n" +
		"| . | SweepRound | 11.2 µs [732 ns] | 9.41 µs [782 ns] | 858 B/878 B | 3 |  |\n" +
		"| internal/moo | ParetoFront/antichain/n18432 | 720 ms [15.0 ms] | — | 3.20 MB | 0 | 1.5 a/op, 2 z/op |\n" +
		"\n" + blockEnd + tail
	if string(doc) != want {
		t.Errorf("document:\n%s\nwant:\n%s", doc, want)
	}

	if err := os.WriteFile(docPath, []byte(head+tail), 0o644); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)
	if err := record(path, Run{Commit: "d"}); err == nil {
		t.Error("record accepted a document without a block")
	}
	if after, _ := os.ReadFile(path); string(after) != string(before) {
		t.Error("a failed record changed the ledger")
	}
}

// TestDocMatchesLedger: docs/performance.md's block is the render of
// BENCH_layers.json's newest run, so the numbers the handbook prints are
// the ledger's. `make layers` rewrites both.
func TestDocMatchesLedger(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger Ledger
	if err := json.Unmarshal(data, &ledger); err != nil {
		t.Fatal(err)
	}
	if len(ledger.Runs) == 0 {
		t.Fatal("the ledger holds no run")
	}
	doc, err := os.ReadFile("../../docs/performance.md")
	if err != nil {
		t.Fatal(err)
	}
	want, err := rewriteBlock(doc, render(ledger.Runs[len(ledger.Runs)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if string(doc) != string(want) {
		t.Error("docs/performance.md's generated block differs from the render of BENCH_layers.json's newest run; run `make layers`")
	}
}
