// Command midasload drives a running midasd and reports sustained QPS
// plus latency percentiles — the regression-gated "how fast is serving
// really" number.
//
// Two modes, one load loop. The default is closed loop: N clients
// submitting back to back, arrival rate coupled to service rate. With
// -arrival the run is open loop: requests fire at the offsets of a
// seeded arrival-process schedule (poisson, bursty, diurnal) regardless
// of how fast the server answers. -record writes the schedule to a
// CRC-framed trace file; -replay fires a previously recorded trace,
// byte-exactly, including against a cluster (comma-separated -addr).
//
// Usage:
//
//	midasload -addr http://localhost:8642 -clients 200 -duration 10s
//	midasload -addr http://localhost:8642 -clients 50 -requests 20 -query Q13
//	midasload -addr http://localhost:8642 -arrival bursty -rate 80 -events 1000 -seed 7
//	midasload -addr http://localhost:8642 -arrival poisson -record run.trace
//	midasload -addr http://localhost:8642 -replay run.trace
//
// The run fails (exit 1) when any request errors, so a smoke run
// doubles as a correctness gate.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "midasload: %v\n", err)
		os.Exit(1)
	}
}

// options is midasload's command line: most flags bind straight into
// the load run or the arrival process.
type options struct {
	load                          workload.LoadConfig
	spec                          scenario.Spec
	addr, weights, record, replay string
	allowErrs                     bool
}

// newFlagSet defines every midasload flag, bound to o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("midasload", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", "http://localhost:8642", "midasd base URL, or comma-separated cluster member URLs")
	fs.StringVar(&o.load.Federation, "federation", "", "federation name (empty on a single-tenant server)")
	fs.StringVar(&o.load.Query, "query", "Q12", "query to submit")
	fs.IntVar(&o.load.Clients, "clients", 50, "concurrent clients")
	fs.IntVar(&o.load.Requests, "requests", 0, "requests per client (0 = run for -duration)")
	fs.DurationVar(&o.load.Duration, "duration", 10*time.Second, "run length when -requests is 0")
	fs.StringVar(&o.weights, "weights", "1,1", "policy weights, comma-separated")
	fs.Int64Var(&o.load.TimeoutMS, "timeout-ms", 0, "per-request server budget (0 = server default)")
	fs.BoolVar(&o.allowErrs, "allow-errors", false, "exit 0 even when requests failed")
	fs.IntVar(&o.load.RedirectBudget, "redirect-budget", 4, "307 follows + retries each request may spend")
	fs.DurationVar(&o.load.RetryBackoff, "retry-backoff", 50*time.Millisecond, "pause before retrying a dead node")

	fs.StringVar(&o.spec.Arrival, "arrival", "", "open-loop arrival process: "+strings.Join(scenario.ArrivalKinds(), ", ")+" (empty = closed loop)")
	fs.Float64Var(&o.spec.Rate, "rate", 50, "open-loop mean arrival rate, events/second")
	fs.IntVar(&o.spec.Events, "events", 500, "open-loop schedule length")
	fs.Int64Var(&o.spec.Seed, "seed", 42, "open-loop schedule seed")
	fs.StringVar(&o.record, "record", "", "write the generated schedule to this trace file (implies open loop)")
	fs.StringVar(&o.replay, "replay", "", "fire the schedule recorded in this trace file instead of generating one")
	fs.IntVar(&o.load.MaxInFlight, "max-inflight", 0, "open-loop concurrent request cap (0 = default 256)")
	fs.Float64Var(&o.load.Speed, "speed", 1, "open-loop schedule time scale: 2 fires it twice as fast")
	return fs
}

func run(args []string, stdout io.Writer) error {
	var o options
	fs := newFlagSet(&o)
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag itself
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	cfg := &o.load
	var err error
	if cfg.Weights, err = parseFloats(o.weights); err != nil {
		return fmt.Errorf("bad -weights: %w", err)
	}
	if addrs := strings.Split(o.addr, ","); len(addrs) > 1 {
		cfg.Addrs = addrs
	} else {
		cfg.BaseURL = strings.TrimRight(o.addr, "/")
	}
	if cfg.Events, err = o.schedule(stdout); err != nil {
		return err
	}
	rep, err := workload.RunLoad(context.Background(), *cfg)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, rep)
	if rep.Skipped > 0 {
		fmt.Fprintf(stdout, "  events skipped (cancelled)   %d\n", rep.Skipped)
	}
	statuses := make([]int, 0, len(rep.StatusCounts))
	for s := range rep.StatusCounts {
		statuses = append(statuses, s)
	}
	sort.Ints(statuses)
	for _, s := range statuses {
		label := "transport error"
		if s != 0 {
			label = fmt.Sprintf("HTTP %d %s", s, http.StatusText(s))
		}
		fmt.Fprintf(stdout, "  %-28s %d\n", label, rep.StatusCounts[s])
	}
	if len(rep.PerNode) > 1 || rep.Redirects > 0 {
		nodes := make([]string, 0, len(rep.PerNode))
		for n := range rep.PerNode {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		for _, n := range nodes {
			ns := rep.PerNode[n]
			fmt.Fprintf(stdout, "  node %-16s %6d requests, %8.1f QPS, p50 %6.1fms, p99 %6.1fms\n",
				n, ns.Requests, ns.QPS, ns.P50MS, ns.P99MS)
		}
		fmt.Fprintf(stdout, "  redirects followed: %d\n", rep.Redirects)
	}
	// Budget exhaustion is a routing failure, never excusable: a healthy
	// cluster resolves any request within a hop or two.
	if rep.Exhausted > 0 {
		return fmt.Errorf("%d requests exhausted their redirect/retry budget of %d", rep.Exhausted, cfg.RedirectBudget)
	}
	if rep.Errors > 0 && !o.allowErrs {
		return fmt.Errorf("%d of %d requests failed", rep.Errors, rep.Requests)
	}
	return nil
}

// schedule resolves the run's arrivals: a recorded trace (-replay), a
// generated one (-arrival, -record), or none for a closed loop.
func (o *options) schedule(stdout io.Writer) ([]scenario.Event, error) {
	switch {
	case o.replay != "":
		if o.spec.Arrival != "" || o.record != "" {
			return nil, fmt.Errorf("-replay is exclusive with -arrival and -record")
		}
		events, err := readTrace(o.replay)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "replaying %d events from %s\n", len(events), o.replay)
		if len(events) == 0 {
			return nil, fmt.Errorf("%s holds no events", o.replay)
		}
		return events, nil
	case o.spec.Arrival != "" || o.record != "":
		o.spec.Federation, o.spec.Queries = o.load.Federation, []string{o.load.Query}
		events, err := o.spec.Generate()
		if err != nil || o.record == "" {
			return events, err
		}
		if err := writeTrace(o.record, events); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "recorded %d events to %s\n", len(events), o.record)
		return events, nil
	}
	return nil, nil
}

// writeTrace records a schedule to a trace file; the write is atomic
// enough for a load tool (full file or an error, no torn header).
func writeTrace(path string, events []scenario.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := scenario.WriteTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readTrace loads a recorded schedule, rejecting corrupt files.
func readTrace(path string) ([]scenario.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return scenario.ReadTrace(f)
}

func parseFloats(csv string) ([]float64, error) {
	parts := strings.Split(csv, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
