// Command benchledger keeps the layer ledger, BENCH_layers.json: it
// reads `go test -bench` output on stdin, echoes it to stdout, and
// summarises it per (benchmark, GOMAXPROCS) — the median ns/op and its
// interquartile range, the median B/op, allocs/op and custom units —
// into one run labelled with the given commit, which replaces a run of
// the same commit in the ledger or is appended to it. A run also
// records the Go version, the number of CPUs and the CPU model the
// benchmarks ran on.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem -count 6 -cpu 1,2 . | benchledger BENCH_layers.json <commit>
//
// `make layers` runs it over the sweep and serving layers' benchmarks.
// It exits 1, leaving the ledger as it was, when the input holds a
// failure or no benchmark line.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
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
// each (benchmark, GOMAXPROCS) first appears.
func summarise(r io.Reader) (Run, error) {
	type key struct {
		benchmark string
		procs     int
	}
	var run Run
	samples := map[key]map[string][]float64{} // unit → values
	var rows []Row
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			run.CPU = cpu
		}
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") {
			return Run{}, fmt.Errorf("the benchmarks failed: %s", line)
		}
		row, units, ok := parseLine(line)
		if !ok {
			continue
		}
		k := key{row.Benchmark, row.Procs}
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
		byUnit := samples[key{row.Benchmark, row.Procs}]
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
// same commit or after the others, creating the file if need be.
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
	data, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
