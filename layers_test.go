package midas

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestLayerLedger: BENCH_layers.json, which `make layers` writes, parses,
// every run in it says what it ran on and has rows, and every benchmark
// it names still exists in the package that holds it (see resolve), so
// a renamed or deleted benchmark cannot leave stale rows behind. In the
// newest run, each benchmark an alloc test gates reads no more
// allocs/op than that test's budget.
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
				Pkg         string  `json:"pkg"`
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
	names := benchmarkIndex{}
	for _, run := range ledger.Runs {
		if run.Commit == "" || !strings.HasPrefix(run.Go, "go") || run.NProc < 1 || len(run.Rows) == 0 {
			t.Errorf("run %q: Go %q, %d CPUs, %d rows", run.Commit, run.Go, run.NProc, len(run.Rows))
		}
		for _, row := range run.Rows {
			if row.Procs < 1 || row.Samples < 1 || !(row.NsPerOp > 0) {
				t.Errorf("run %q, %s at -cpu %d: %d samples, %v ns/op", run.Commit, row.Benchmark, row.Procs, row.Samples, row.NsPerOp)
			}
			if problem := names.resolve(t, row.Pkg, row.Benchmark); problem != "" {
				t.Errorf("run %q: %s", run.Commit, problem)
			}
		}
	}
	t.Run("stale rows are reported", func(t *testing.T) {
		for _, c := range []struct {
			pkg, benchmark string
			stale          bool
		}{
			{"", "PlanSweep/Full/P128", false},
			{"repro", "HistoryPage/Polled", false},
			{"repro/internal/moo", "ParetoFront/antichain/n18432", false},
			{"repro/internal/histstore", "Recovery/retain=1024/n=100000", false},
			{"repro", "DREAMEstimateUncached", true},                 // deleted
			{"repro", "ParetoFront/front1/n2048", true},              // another package's
			{"repro", "PlanSweep/Full/P999", true},                   // no literal holds P999
			{"repro/internal/moo", "ParetoFront/front1/m2048", true}, // "%s/n%d" cannot make m2048
			{"repro/internal/histstore", "Recovery/n=many", true},
		} {
			if problem := names.resolve(t, c.pkg, c.benchmark); (problem != "") != c.stale {
				t.Errorf("%s %s: stale %v, want %v (%q)", c.pkg, c.benchmark, problem != "", c.stale, problem)
			}
		}
	})
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
			if name, _, _ := strings.Cut(row.Benchmark, "/"); name != gate.benchmark || packageDir(row.Pkg) != "." {
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

// packageDir is the directory of a module package, given its import
// path: "." for the root, and for the rows of runs made before the
// ledger recorded packages, which hold none.
func packageDir(pkg string) string {
	if _, dir, ok := strings.Cut(pkg, "/"); ok {
		return dir
	}
	return "."
}

// benchmarkIndex holds, per package directory, what each benchmark
// function's sub-benchmark names can be made of.
type benchmarkIndex map[string]map[string]benchmarkNames

type benchmarkNames struct {
	literals string           // the function's string literals, joined by NULs
	formats  []*regexp.Regexp // each "/"-separated piece of its fmt.Sprintf formats
}

// resolve returns why the benchmark a ledger row names no longer exists
// in package pkg, or "" if it does: a function Benchmark<first segment>
// there, each further segment of whose name is within one of its string
// literals or is one piece of one of its fmt.Sprintf formats, with
// "%d" as digits and every other verb as any text. A piece that is one
// bare verb could be any segment, so it resolves none.
func (idx benchmarkIndex) resolve(t *testing.T, pkg, benchmark string) string {
	dir := packageDir(pkg)
	if idx[dir] == nil {
		idx[dir] = benchmarkSources(t, dir)
	}
	segments := strings.Split(benchmark, "/")
	names, ok := idx[dir]["Benchmark"+segments[0]]
	if !ok {
		return "Benchmark" + segments[0] + " is gone from " + dir
	}
segment:
	for _, seg := range segments[1:] {
		if strings.Contains(names.literals, seg) {
			continue
		}
		for _, f := range names.formats {
			if f.MatchString(seg) {
				continue segment
			}
		}
		return "Benchmark" + segments[0] + " in " + dir + " names no sub-benchmark " + strconv.Quote(seg)
	}
	return ""
}

// verb is a fmt verb with its flags, width and precision.
var verb = regexp.MustCompile(`%[-+# 0-9.]*[a-zA-Z]`)

// benchmarkSources reads the test files of the package in dir.
func benchmarkSources(t *testing.T, dir string) map[string]benchmarkNames {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no test files in %s: %v", dir, err)
	}
	out := map[string]benchmarkNames{}
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
			var formats []*regexp.Regexp
			ast.Inspect(fn, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BasicLit:
					if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil {
						lits = append(lits, s)
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sprintf" && len(n.Args) > 0 {
						if lit, ok := n.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
							format, _ := strconv.Unquote(lit.Value)
							for _, piece := range strings.Split(format, "/") {
								if verb.ReplaceAllString(piece, "") == "" {
									continue
								}
								formats = append(formats, pieceRegexp(piece))
							}
						}
					}
				}
				return true
			})
			out[fn.Name.Name] = benchmarkNames{strings.Join(lits, "\x00"), formats}
		}
	}
	return out
}

// pieceRegexp matches what one piece of a format can print.
func pieceRegexp(piece string) *regexp.Regexp {
	var re strings.Builder
	re.WriteString("^")
	last := 0
	for _, m := range verb.FindAllStringIndex(piece, -1) {
		re.WriteString(regexp.QuoteMeta(piece[last:m[0]]))
		if strings.HasSuffix(piece[m[0]:m[1]], "d") {
			re.WriteString("-?[0-9]+")
		} else {
			re.WriteString(".+")
		}
		last = m[1]
	}
	re.WriteString(regexp.QuoteMeta(piece[last:]) + "$")
	return regexp.MustCompile(re.String())
}
