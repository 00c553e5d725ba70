// Command benchledger keeps the layer ledger, BENCH_layers.json: it
// reads `go test -bench` output on stdin, echoes it to stdout, and
// summarises it per (package, benchmark, GOMAXPROCS) — the median ns/op
// and its interquartile range, the median B/op, allocs/op and custom
// units — into one run labelled with the given commit, which replaces a
// run of the same commit in the ledger or is appended to it. A run also
// records the Go version, the number of CPUs and the CPU model the
// benchmarks ran on. The ledger's newest run is then rendered as a table
// into the marked block of docs/performance.md beside the ledger.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem -count 6 -cpu 1,2 . | benchledger BENCH_layers.json <commit>
//
// `make layers` runs it over every layer's benchmarks. It exits 1,
// leaving the ledger and the document as they were, when the input
// holds a failure or no benchmark line, or the document has no block.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Ledger is the file: one run per measured commit, oldest first.
type Ledger struct {
	Runs []Run `json:"runs"`
}

// Run is one commit's measurement.
type Run struct {
	Commit string `json:"commit"`
	Go     string `json:"go"`
	NProc  int    `json:"nproc"`
	CPU    string `json:"cpu_model,omitempty"`
	Rows   []Row  `json:"rows"`
}

// Row summarises the samples of one benchmark at one GOMAXPROCS.
type Row struct {
	// Pkg is the benchmark's import path; runs recorded before it
	// existed hold root-package rows only.
	Pkg         string             `json:"pkg,omitempty"`
	Benchmark   string             `json:"benchmark"`
	Procs       int                `json:"cpu"`
	Samples     int                `json:"samples"`
	NsPerOp     float64            `json:"ns_per_op"`
	NsPerOpIQR  float64            `json:"ns_per_op_iqr"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Units       map[string]float64 `json:"units,omitempty"`
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: go test -bench ... | benchledger <ledger.json> <commit>")
		os.Exit(2)
	}
	path, commit := os.Args[1], os.Args[2]
	run, err := summarise(io.TeeReader(os.Stdin, os.Stdout))
	if err == nil {
		run.Commit, run.Go, run.NProc = commit, runtime.Version(), runtime.NumCPU()
		err = record(path, run)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchledger: %v\n", err)
		os.Exit(1)
	}
}

// summarise reads benchmark output and returns its rows, in the order
// each (package, benchmark, GOMAXPROCS) first appears.
func summarise(r io.Reader) (Run, error) {
	type key struct {
		pkg, benchmark string
		procs          int
	}
	var run Run
	var pkg string
	samples := map[key]map[string][]float64{} // unit → values
	var rows []Row
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			run.CPU = cpu
		}
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = p
		}
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") {
			return Run{}, fmt.Errorf("the benchmarks failed: %s", line)
		}
		row, units, ok := parseLine(line)
		if !ok {
			continue
		}
		row.Pkg = pkg
		k := key{pkg, row.Benchmark, row.Procs}
		if samples[k] == nil {
			samples[k] = map[string][]float64{}
			rows = append(rows, row)
		}
		for unit, v := range units {
			samples[k][unit] = append(samples[k][unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return Run{}, err
	}
	if len(rows) == 0 {
		return Run{}, errors.New("no benchmark line in the input")
	}
	for _, row := range rows {
		byUnit := samples[key{row.Pkg, row.Benchmark, row.Procs}]
		row.Samples = len(byUnit["ns/op"])
		for unit, vs := range byUnit {
			q, err := stats.Quantiles(vs, 0.25, 0.5, 0.75)
			if err != nil {
				return Run{}, err
			}
			switch unit {
			case "ns/op":
				row.NsPerOp, row.NsPerOpIQR = q[1], q[2]-q[0]
			case "B/op":
				row.BytesPerOp = q[1]
			case "allocs/op":
				row.AllocsPerOp = q[1]
			default:
				if row.Units == nil {
					row.Units = map[string]float64{}
				}
				row.Units[unit] = q[1]
			}
		}
		run.Rows = append(run.Rows, row)
	}
	return run, nil
}

// parseLine reads one result line —
//
//	BenchmarkPlanSweep/Full/P2048-2   50000   9570 ns/op   64.00 candidates/op   1008 B/op   3 allocs/op
//
// — into its benchmark name without the "Benchmark" prefix, its
// GOMAXPROCS (the "-N" suffix, absent at 1) and its value per unit.
func parseLine(line string) (Row, map[string]float64, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Row{}, nil, false
	}
	name, ok := strings.CutPrefix(f[0], "Benchmark")
	if _, err := strconv.Atoi(f[1]); !ok || err != nil {
		return Row{}, nil, false
	}
	row := Row{Benchmark: name, Procs: 1}
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			row.Benchmark, row.Procs = name[:i], n
		}
	}
	units := map[string]float64{}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Row{}, nil, false
		}
		units[f[i+1]] = v
	}
	_, timed := units["ns/op"]
	return row, units, timed
}

// record puts run into the ledger at path, in place of a run of the
// same commit or after the others, creating the file if need be, and
// renders the ledger's newest run into the block of the document
// docs/performance.md beside it.
func record(path string, run Run) error {
	var ledger Ledger
	switch data, err := os.ReadFile(path); {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &ledger); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if i := slices.IndexFunc(ledger.Runs, func(r Run) bool { return r.Commit == run.Commit }); i >= 0 {
		ledger.Runs[i] = run
	} else {
		ledger.Runs = append(ledger.Runs, run)
	}
	docPath := filepath.Join(filepath.Dir(path), "docs", "performance.md")
	doc, err := os.ReadFile(docPath)
	if err != nil {
		return err
	}
	if doc, err = rewriteBlock(doc, render(ledger.Runs[len(ledger.Runs)-1])); err != nil {
		return fmt.Errorf("%s: %w", docPath, err)
	}
	data, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.WriteFile(docPath, doc, 0o644)
}

// The lines that open and close the document's generated block.
const (
	blockBegin = "<!-- begin benchledger: the newest run of BENCH_layers.json, rewritten by `make layers` -->\n"
	blockEnd   = "<!-- end benchledger -->\n"
)

// rewriteBlock returns doc with the lines between its block's markers
// replaced by table.
func rewriteBlock(doc []byte, table string) ([]byte, error) {
	head, rest, ok := strings.Cut(string(doc), blockBegin)
	if !ok {
		return nil, fmt.Errorf("no line %q", strings.TrimSpace(blockBegin))
	}
	_, tail, ok := strings.Cut(rest, blockEnd)
	if !ok {
		return nil, fmt.Errorf("no line %q after the block's first", strings.TrimSpace(blockEnd))
	}
	return []byte(head + blockBegin + table + blockEnd + tail), nil
}

// render returns run as a markdown table, one line per benchmark: its
// median time/op [interquartile range] at each -cpu of the run side by
// side, then its B/op, allocs/op and other units, "/"-joined where they
// differ by -cpu.
func render(run Run) string {
	type line struct {
		pkg, benchmark string
		rows           []Row
	}
	var lines []*line
	var procs []int
	for _, row := range run.Rows {
		if !slices.Contains(procs, row.Procs) {
			procs = append(procs, row.Procs)
		}
		i := slices.IndexFunc(lines, func(l *line) bool { return l.pkg == row.Pkg && l.benchmark == row.Benchmark })
		if i < 0 {
			i, lines = len(lines), append(lines, &line{pkg: row.Pkg, benchmark: row.Benchmark})
		}
		lines[i].rows = append(lines[i].rows, row)
	}
	slices.Sort(procs)
	var b strings.Builder
	fmt.Fprintf(&b, "Commit `%s`, %s, %d × %s. Each figure is the median of a row's samples; brackets hold the interquartile range of time/op.\n\n| package | benchmark |",
		run.Commit, run.Go, run.NProc, run.CPU)
	for _, p := range procs {
		fmt.Fprintf(&b, " time/op at -cpu %d |", p)
	}
	b.WriteString(" B/op | allocs/op | other |\n|---|---|" + strings.Repeat("--:|", len(procs)+2) + "---|\n")
	for _, l := range lines {
		pkg := "."
		if _, dir, ok := strings.Cut(l.pkg, "/"); ok {
			pkg = dir
		}
		fmt.Fprintf(&b, "| %s | %s |", pkg, l.benchmark)
		slices.SortFunc(l.rows, func(x, y Row) int { return x.Procs - y.Procs })
		units := map[string]bool{}
		for _, p := range procs {
			cell := "—"
			if i := slices.IndexFunc(l.rows, func(r Row) bool { return r.Procs == p }); i >= 0 {
				cell = duration(l.rows[i].NsPerOp) + " [" + duration(l.rows[i].NsPerOpIQR) + "]"
			}
			b.WriteString(" " + cell + " |")
		}
		for _, r := range l.rows {
			for unit := range r.Units {
				units[unit] = true
			}
		}
		var other []string
		for _, unit := range slices.Sorted(maps.Keys(units)) {
			other = append(other, byProcs(l.rows, func(r Row) string { return number(r.Units[unit]) })+" "+unit)
		}
		fmt.Fprintf(&b, " %s | %s | %s |\n", byProcs(l.rows, func(r Row) string { return size(r.BytesPerOp) }),
			byProcs(l.rows, func(r Row) string { return number(r.AllocsPerOp) }), strings.Join(other, ", "))
	}
	b.WriteString("\n")
	return b.String()
}

// byProcs formats one value of each row, in -cpu order, "/"-joined
// unless all agree.
func byProcs(rows []Row, format func(Row) string) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = format(r)
	}
	if len(slices.Compact(slices.Clone(out))) == 1 {
		return out[0]
	}
	return strings.Join(out, "/")
}

// number formats v in as few digits as keep it exact.
func number(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// duration formats ns nanoseconds to three or four significant digits.
func duration(ns float64) string { return scaled(ns, "ns", "µs", "ms", "s") }

// size formats a byte count to three or four significant digits.
func size(bytes float64) string { return scaled(bytes, "B", "kB", "MB", "GB") }

// scaled formats v in the largest of the units, each 1,000 times the
// last, that it fills.
func scaled(v float64, units ...string) string {
	unit := 0
	for unit < len(units)-1 && v >= 1000 {
		v, unit = v/1000, unit+1
	}
	decimals := 0
	switch {
	case unit == 0 && v == math.Trunc(v): // a whole count of the base unit: 8 B, not 8.00 B
	case v < 10:
		decimals = 2
	case v < 100:
		decimals = 1
	}
	return strconv.FormatFloat(v, 'f', decimals, 64) + " " + units[unit]
}
