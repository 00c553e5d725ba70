package midas

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLayerLedger: BENCH_layers.json, which `make layers` writes, parses,
// every run in it says what it ran on and has rows, and every benchmark
// it names still exists in this package: a function Benchmark<first
// segment>, whose string literals hold each further segment of the
// name (the sub-benchmarks' names), so a renamed or deleted benchmark
// cannot leave stale rows behind. In the newest run, each benchmark an
// alloc test gates reads no more allocs/op than that test's budget.
func TestLayerLedger(t *testing.T) {
	data, err := os.ReadFile("BENCH_layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger struct {
		Runs []struct {
			Commit string `json:"commit"`
			Go     string `json:"go"`
			NProc  int    `json:"nproc"`
			Rows   []struct {
				Benchmark   string  `json:"benchmark"`
				Procs       int     `json:"cpu"`
				Samples     int     `json:"samples"`
				NsPerOp     float64 `json:"ns_per_op"`
				AllocsPerOp float64 `json:"allocs_per_op"`
			} `json:"rows"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &ledger); err != nil {
		t.Fatal(err)
	}
	if len(ledger.Runs) == 0 {
		t.Fatal("the ledger holds no run")
	}
	literals := benchmarkLiterals(t)
	for _, run := range ledger.Runs {
		if run.Commit == "" || !strings.HasPrefix(run.Go, "go") || run.NProc < 1 || len(run.Rows) == 0 {
			t.Errorf("run %q: Go %q, %d CPUs, %d rows", run.Commit, run.Go, run.NProc, len(run.Rows))
		}
		for _, row := range run.Rows {
			if row.Procs < 1 || row.Samples < 1 || !(row.NsPerOp > 0) {
				t.Errorf("run %q, %s at -cpu %d: %d samples, %v ns/op", run.Commit, row.Benchmark, row.Procs, row.Samples, row.NsPerOp)
			}
			segments := strings.Split(row.Benchmark, "/")
			lits, ok := literals["Benchmark"+segments[0]]
			if !ok {
				t.Errorf("run %q: Benchmark%s is gone", run.Commit, segments[0])
				continue
			}
			for _, seg := range segments[1:] {
				if !strings.Contains(lits, seg) {
					t.Errorf("run %q: Benchmark%s names no sub-benchmark %q", run.Commit, segments[0], seg)
				}
			}
		}
	}
	newest := ledger.Runs[len(ledger.Runs)-1]
	for _, gate := range []struct {
		benchmark string // with its sub-benchmarks
		budget    float64
		test      string
	}{
		{"ServeHotPath", hotPathAllocBudget, "TestServeSubmitAllocBudget no-deadline"},
		{"ServeServedCold", servedColdAllocBudget + withCancelAllocs, "TestServeSubmitAllocBudget served-cold, plus the benchmark's context.WithCancel"},
		{"HistoryPage", historyPageAllocBudget, "TestHistoryPageAllocBudget"},
	} {
		rows := 0
		for _, row := range newest.Rows {
			if name, _, _ := strings.Cut(row.Benchmark, "/"); name != gate.benchmark {
				continue
			}
			rows++
			if row.AllocsPerOp > gate.budget {
				t.Errorf("run %q, %s at -cpu %d: %v allocs/op, over the budget of %v (%s)",
					newest.Commit, row.Benchmark, row.Procs, row.AllocsPerOp, gate.budget, gate.test)
			}
		}
		if rows == 0 {
			t.Errorf("run %q has no Benchmark%s row", newest.Commit, gate.benchmark)
		}
	}
}

// benchmarkLiterals maps every benchmark function of this package's
// test files to its string literals, joined.
func benchmarkLiterals(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !strings.HasPrefix(fn.Name.Name, "Benchmark") {
				continue
			}
			var lits []string
			ast.Inspect(fn, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						lits = append(lits, s)
					}
				}
				return true
			})
			out[fn.Name.Name] = strings.Join(lits, "\x00")
		}
	}
	return out
}
