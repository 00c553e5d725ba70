// Command bench is the repository's one end-to-end benchmark. It boots
// the real serving stack in-process from its public constructors on
// loopback listeners, drives it over HTTP/JSON with its own load
// generator, checks the outputs and prints every metric by name with
// its unit. It measures each module from outside and claims no gain.
//
//	go run -C bench .                      all four workloads, both runs
//	go run -C bench . -workload solo -trace 0 -seed 7 -seconds 20
//	go run -C bench . -compare a1.json,a2.json b1.json,b2.json
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// box is the set of facts every result carries: a number without them
// cannot be compared with another.
type box struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Filesystem string `json:"filesystem"` // of the data directories
}

// result is the content of out/result.json.
type result struct {
	Box       box                        `json:"box"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Rounds    int                        `json:"rounds"`
	Smoke     bool                       `json:"smoke,omitempty"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: solo, sweep, durable, cluster3 or all")
		seed    = fs.Int64("seed", 1, "seed of the request mix, the policies and the arrival times")
		seconds = fs.Float64("seconds", 20, "wall time of the timed rounds of one untraced run")
		trace   = fs.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both")
		rounds  = fs.Int("rounds", 100, "timed rounds sharing -seconds; timing metrics take the median of the calm ones")
		outDir  = fs.String("out", "out", "directory for result.json, trace-<workload>.jsonl and scratch data")
		smoke   = fs.Bool("smoke", false, "tiny sizes: prove boots, checks and teardown, not performance")
		compare = fs.Bool("compare", false, "compare two results against BENCHMARK.json's bounds: -compare a.json b.json; a comma-separated set of files per side compares medians")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json[,a2.json...] b.json[,b2.json...]")
			return 2
		}
		return compareFiles(specPath, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != "0" && *trace != "1" && *trace != "both" || *seconds <= 0 || *rounds < 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0, 1 or both; -seconds and -rounds are positive")
		return 2
	}
	var selected []*workload
	for _, w := range workloads() {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	workDir, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	// One core: with two, a request hops between threads, and how long a
	// hop takes on a shared host — a futex wake, an IPI through the
	// hypervisor — moved every timing by half between runs of the same
	// code (README, "Why one core and one connection").
	runtime.GOMAXPROCS(1)
	r := &runner{
		env:     &env{workDir: workDir, gomaxprocs: runtime.GOMAXPROCS(0), seed: *seed, smoke: *smoke},
		seconds: *seconds, rounds: *rounds, outDir: *outDir,
	}
	if *smoke {
		r.seconds, r.rounds = 0.6, 3
	}
	res := &result{
		Box: box{NProc: runtime.NumCPU(), GOMAXPROCS: r.env.gomaxprocs, GoVersion: runtime.Version(),
			OS: runtime.GOOS + "/" + runtime.GOARCH, Filesystem: fsType(workDir)},
		Seed: *seed, Seconds: r.seconds, Rounds: r.rounds, Smoke: *smoke,
		Workloads: make(map[string]*workloadResult),
	}
	fmt.Fprintf(stdout, "box: nproc=%d GOMAXPROCS=%d %s %s filesystem=%s seed=%d seconds=%g rounds=%d\n",
		res.Box.NProc, res.Box.GOMAXPROCS, res.Box.GoVersion, res.Box.OS, res.Box.Filesystem, *seed, r.seconds, r.rounds)

	sum := summary{Correct: true, Metrics: make(map[string]metricValue)}
	for _, w := range selected {
		wr := &workloadResult{Name: w.name, Checks: []string{}}
		res.Workloads[w.name] = wr
		var err error
		if *trace != "1" {
			err = r.e2e(w, wr)
		}
		if err == nil && *trace != "0" {
			err = r.traced(w, wr)
		}
		if err != nil {
			wr.fail("run aborted: %v", err)
		}
		// solo sends one fixed request, so its two runs decide alike
		// whatever the seed; the other workloads' traced runs follow -seed.
		// (The smoke pass is too short for the two digests to cover the
		// same number of decisions.)
		if w.oneRequest && !*smoke && wr.Digest != "" && wr.TracedDigest != "" && wr.Digest != wr.TracedDigest {
			wr.fail("decisions differ between the untraced run (digest %s) and the traced run (%s)", wr.Digest, wr.TracedDigest)
		}
		printWorkload(stdout, w, wr)
		sum.Correct = sum.Correct && len(wr.Checks) == 0
		sum.Attempted += wr.Attempted
		sum.Failed += wr.Failed
		for _, part := range []map[string]metricValue{wr.Metrics, wr.Layers} {
			for k, v := range part {
				if len(selected) > 1 {
					k = w.name + "." + k
				}
				sum.Metrics[k] = v
			}
		}
	}
	if err := writeJSON(filepath.Join(*outDir, "result.json"), res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if sum.Attempted == 0 {
		// Nothing ran: print no result line at all.
		fmt.Fprintln(stderr, "bench: no request was attempted")
		return 1
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printWorkload prints one workload's tables.
func printWorkload(w io.Writer, wl *workload, r *workloadResult) {
	fmt.Fprintf(w, "\n== %s  disturbed=%t attempted=%d failed=%d\n   why: %s\n", r.Name, r.Disturbed, r.Attempted, r.Failed, wl.why)
	if r.Metrics != nil {
		fmt.Fprintf(w, "  end-to-end (tracing off, 1 connection; %d boots, %d-request block with %d decisions, %d timed rounds)\n",
			len(r.Boots), r.BlockRequests, r.BlockSamples, len(r.Rounds))
		for _, d := range endToEnd {
			fmt.Fprintf(w, "    %-16s %14.6g %-6s%s\n", d.name, r.Metrics[d.name].Value, d.unit, perRound(d.name, r))
		}
		fmt.Fprintln(w, "  diagnostics (never gated)")
		for _, d := range diagnostics {
			fmt.Fprintf(w, "    %-16s %14.6g %-6s%s\n", d.name, r.Diagnostics[d.name].Value, d.unit, perRound(d.name, r))
		}
		if r.Digest != "" {
			fmt.Fprintf(w, "    decision digest  %s (first %d decisions at most)\n", r.Digest, digestLen)
		}
	}
	if r.Layers != nil {
		fmt.Fprintf(w, "  per-layer (traced run, 1 connection, %.0f requests, spans in %s)\n", r.Layers["diag.trace_requests"].Value, r.TraceFile)
		for _, d := range perLayer {
			fmt.Fprintf(w, "    %-32s %14.6g %s\n", d.name, r.Layers[d.name].Value, d.unit)
		}
		fmt.Fprintf(w, "    decision digest  %s untraced twin, %s traced\n", r.TwinDigest, r.TracedDigest)
	}
	if len(r.Checks) == 0 {
		fmt.Fprintln(w, "  checks: ok")
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", c)
	}
}

// perRound renders the per-round values (and sample counts) behind one
// metric.
func perRound(name string, r *workloadResult) string {
	var b strings.Builder
	if name == "setup_s" {
		b.WriteString("  boots:")
		for _, v := range r.Boots {
			fmt.Fprintf(&b, " %.4g", v)
		}
		return b.String()
	}
	if len(r.Rounds) == 0 {
		return ""
	}
	if name == "steal_share" {
		for _, rd := range r.Rounds {
			fmt.Fprintf(&b, " %.2f", rd.Steal)
		}
		return b.String()
	}
	if _, ok := r.Rounds[0].Values[name]; !ok {
		return ""
	}
	b.WriteString("  rounds:")
	for _, rd := range r.Rounds {
		fmt.Fprintf(&b, " %.4g", rd.Values[name])
	}
	b.WriteString("  n:")
	for _, rd := range r.Rounds {
		fmt.Fprintf(&b, " %d", rd.Samples)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// -compare

// specPath locates BENCHMARK.json from the benchmark's own directory,
// where run.sh and go run -C bench start the program.
var specPath = filepath.Join("..", "BENCHMARK.json")

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// worseBy is by what share of a's value b is worse than a.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareResults applies the bounds to two results and writes one
// pass/fail row per (metric, workload); it reports whether all passed.
func compareResults(spec *benchmarkSpec, a, b *result, w io.Writer) bool {
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	pass := true
	fmt.Fprintf(w, "%-10s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(w, "%-10s missing from b  FAIL\n", name)
			pass = false
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := wa.Metrics[m.Name].Value, wb.Metrics[m.Name].Value
			by := worseBy(va, vb, m.Better)
			verdict := "pass"
			if by > m.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(w, "%-10s %-16s %14.6g %14.6g %8.1f%% %6.1f%%  %s\n", name, m.Name, va, vb, by*100, m.Bound*100, verdict)
		}
		if wa.Digest != wb.Digest && wa.Digest != "" && wb.Digest != "" {
			fmt.Fprintf(w, "%-10s decision digest %s vs %s  FAIL\n", name, wa.Digest, wb.Digest)
			pass = false
		}
		if wa.Disturbed || wb.Disturbed {
			fmt.Fprintf(w, "%-10s note: a disturbed=%t, b disturbed=%t (no calm round; timings are the neighbours' too)\n", name, wa.Disturbed, wb.Disturbed)
		}
	}
	return pass
}

func compareFiles(specPath, aPaths, bPaths string, stdout, stderr io.Writer) int {
	var spec benchmarkSpec
	a, errA := medianResult(aPaths)
	b, errB := medianResult(bPaths)
	if err := errors.Join(readJSON(specPath, &spec), errA, errB); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !compareResults(&spec, a, b, stdout) {
		return 1
	}
	return 0
}

// medianResult reads a comma-separated set of result files and folds
// them into one result holding, per workload and end-to-end metric, the
// median over the set: on a shared box the bounds are meant for medians
// of several runs, not for one pair. The runs of a set must agree on the
// decision digest; a workload is disturbed when more than half its runs
// were.
func medianResult(paths string) (*result, error) {
	out := &result{Workloads: make(map[string]*workloadResult)}
	values := make(map[string]map[string][]float64)
	disturbed := make(map[string]int)
	files := strings.Split(paths, ",")
	for _, path := range files {
		var r result
		if err := readJSON(path, &r); err != nil {
			return nil, err
		}
		for name, w := range r.Workloads {
			acc := out.Workloads[name]
			if acc == nil {
				acc = &workloadResult{Name: name, Digest: w.Digest, Metrics: make(map[string]metricValue)}
				out.Workloads[name] = acc
				values[name] = make(map[string][]float64)
			}
			if w.Digest != acc.Digest {
				return nil, fmt.Errorf("%s: %s decided differently (digest %s) than the runs before it (%s)", path, name, w.Digest, acc.Digest)
			}
			if w.Disturbed {
				disturbed[name]++
			}
			for m, v := range w.Metrics {
				values[name][m] = append(values[name][m], v.Value)
				acc.Metrics[m] = v
			}
		}
	}
	for name, w := range out.Workloads {
		w.Disturbed = 2*disturbed[name] > len(files)
		for m, vals := range values[name] {
			w.Metrics[m] = metricValue{Value: median(vals), Unit: w.Metrics[m].Unit}
		}
	}
	return out, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
