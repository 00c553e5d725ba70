// Command midasctl drives the MIDAS/DREAM reproduction from the shell:
// it regenerates the paper's tables and figures, runs ablations, and
// demonstrates one end-to-end scheduling round.
//
// Usage:
//
//	midasctl [flags] <command>
//
// Commands:
//
//	pricing     print Table 1 (instance pricing)
//	table2      print Table 2 (R² vs window size, exact-match check)
//	table3      print Table 3 (MRE at 100 MiB)
//	table4      print Table 4 (MRE at 1 GiB)
//	fig3        print the Figure 3 comparison (GA vs WSM MOQP)
//	example31   print the Example 3.1 estimation-throughput study
//	ablations   print the five design-choice ablations: window growth,
//	            R² threshold, recency, composite and optimizer
//	scenarios   print the scenario sweep: MRE, regret and latency
//	            percentiles per (arrival process × chaos profile) cell
//	run-query   run one full pipeline round (enumerate→estimate→
//	            optimize→select→execute) and print the decision
//	gen         print generator statistics for a scale factor
//	cluster-status
//	            print per-peer health and the routing table of the
//	            midasd cluster at -addr
//	all         pricing through ablations, in paper order, then
//	            run-query on Q12 (not scenarios, gen or cluster-status)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/server"
	"repro/internal/tpch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is midasctl with its arguments and output streams as parameters:
// it returns the exit status, 2 for a usage error and 1 for a failed
// command.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("midasctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed   = fs.Int64("seed", 42, "base random seed")
		reps   = fs.Int("reps", 5, "repetitions for the MRE campaigns")
		hist   = fs.Int("history", 60, "history size for the MRE campaigns")
		tests  = fs.Int("tests", 30, "test queries for the MRE campaigns")
		sf     = fs.Float64("sf", 0.01, "scale factor for gen/run-query")
		query  = fs.String("query", "Q12", "TPC-H query for run-query (Q12, Q13, Q14, Q17)")
		events = fs.Int("events", 120, "events per scenario for the scenarios sweep")
		addr   = fs.String("addr", "http://127.0.0.1:8080", "midasd base URL for cluster-status")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: midasctl [flags] <pricing|table2|table3|table4|fig3|example31|ablations|scenarios|run-query|gen|cluster-status|all>\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	// Reject bad flag values up front, before a campaign burns minutes
	// only to fail deep inside an experiment.
	if *reps < 1 || *hist < 1 || *tests < 1 {
		fmt.Fprintf(stderr, "midasctl: -reps, -history and -tests must be positive\n")
		return 2
	}
	if *sf <= 0 {
		fmt.Fprintf(stderr, "midasctl: -sf must be positive, got %v\n", *sf)
		return 2
	}
	q, err := tpch.ParseQueryID(*query)
	if err != nil {
		fmt.Fprintf(stderr, "midasctl: bad -query: %v\n", err)
		return 2
	}

	opts := experiments.MREOptions{Reps: *reps, HistorySize: *hist, TestQueries: *tests, Seed: *seed}
	switch cmd := fs.Arg(0); cmd {
	case "pricing":
		err = printPricing(stdout)
	case "table2":
		err = printTable2(stdout)
	case "table3":
		err = printTable3(stdout, opts)
	case "table4":
		err = printTable4(stdout, opts)
	case "fig3":
		err = printFig3(stdout, *seed)
	case "example31":
		err = printExample31(stdout, *seed)
	case "ablations":
		err = printAblations(stdout, *seed)
	case "scenarios":
		err = printScenarios(stdout, *seed, *events)
	case "run-query":
		err = runQuery(stdout, *seed, *sf, q)
	case "gen":
		err = printGen(stdout, *sf, *seed)
	case "cluster-status":
		err = printClusterStatus(stdout, *addr)
	case "all":
		err = runAll(stdout, opts, *seed, *sf)
	default:
		fmt.Fprintf(stderr, "midasctl: unknown command %q\n", cmd)
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "midasctl: %v\n", err)
		return 1
	}
	return 0
}

func printPricing(w io.Writer) error {
	fmt.Fprintln(w, experiments.Table1Pricing().Render())
	return nil
}

func printTable2(w io.Writer) error {
	t, err := experiments.Table2R2()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

func printTable3(w io.Writer, opts experiments.MREOptions) error {
	_, t, err := experiments.Table3MRE(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

func printTable4(w io.Writer, opts experiments.MREOptions) error {
	_, t, err := experiments.Table4MRE(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

func printFig3(w io.Writer, seed int64) error {
	_, t, err := experiments.RunFig3(experiments.Fig3Options{PolicyChanges: 5, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

func printExample31(w io.Writer, seed int64) error {
	_, t, err := experiments.RunExample31(experiments.Example31Options{Plans: 2000, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

func printAblations(w io.Writer, seed int64) error {
	opts := experiments.AblationOptions{Reps: 3, Seed: seed}
	for _, ablation := range []func(experiments.AblationOptions) (*experiments.Table, error){
		experiments.AblationWindowGrowth,
		experiments.AblationR2Threshold,
		experiments.AblationRecency,
		experiments.AblationComposite,
		experiments.AblationOptimizer,
	} {
		t, err := ablation(opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, t.Render())
	}
	return nil
}

func printScenarios(w io.Writer, seed int64, events int) error {
	_, t, err := experiments.RunScenarios(experiments.ScenarioOptions{Seed: seed, Events: events})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t.Render())
	return nil
}

func runQuery(w io.Writer, seed int64, sf float64, q tpch.QueryID) error {
	fmt.Fprintf(w, "Running %v end to end at SF %v (full relational execution)\n\n", q, sf)
	fed, err := federation.DefaultTopology(seed)
	if err != nil {
		return err
	}
	db, err := tpch.Generate(sf, tpch.GenOptions{Seed: seed})
	if err != nil {
		return err
	}
	exec := federation.NewFullExecutor(fed, db)
	model, err := ires.NewDREAMModel(core.Config{MMax: 3 * (federation.FeatureDim + 2)})
	if err != nil {
		return err
	}
	sched, err := ires.NewScheduler(fed, exec, model, []int{1, 2, 4}, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "bootstrapping history with 12 random plan executions...")
	if err := sched.Bootstrap(q, 12); err != nil {
		return err
	}
	dec, err := sched.Submit(q, ires.Policy{Weights: []float64{1, 1}})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "plan space: %d QEPs, Pareto set: %d\n", dec.PlanSpace, dec.ParetoSize)
	fmt.Fprintf(w, "chosen plan: %v\n", dec.Plan)
	fmt.Fprintf(w, "estimated:   %.2f s, $%.5f\n", dec.Estimated[0], dec.Estimated[1])
	fmt.Fprintf(w, "measured:    %.2f s, $%.5f\n", dec.Outcome.TimeS, dec.Outcome.MoneyUSD)
	if dec.Outcome.Result != nil {
		fmt.Fprintf(w, "\nresult (%d rows):\n", len(dec.Outcome.Result.Rows))
		for i, row := range dec.Outcome.Result.Rows {
			if i == 10 {
				fmt.Fprintln(w, "  ...")
				break
			}
			fmt.Fprintf(w, "  %v\n", row)
		}
	}
	return nil
}

func printGen(w io.Writer, sf float64, seed int64) error {
	db, err := tpch.Generate(sf, tpch.GenOptions{Seed: seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "TPC-H population at SF %v (seed %d):\n", sf, seed)
	for _, table := range []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"} {
		rows, err := db.TableRows(table)
		if err != nil {
			return err
		}
		bytes, err := db.TableBytes(table)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-9s %9d rows  %10.1f KiB\n", table, rows, bytes/1024)
	}
	fmt.Fprintf(w, "  total     %21.1f MiB\n", db.TotalBytes()/1024/1024)
	return nil
}

// printClusterStatus reads one node's routing table, then asks every
// member for its own health. A member that cannot be reached is
// reported as such rather than failing the whole status — that is
// exactly the situation an operator runs this command in.
func printClusterStatus(w io.Writer, addr string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	var table server.ClusterResponse
	if err := getJSON(client, addr+"/v1/cluster", &table); err != nil {
		return fmt.Errorf("%s: %w (is midasd running in cluster mode?)", addr, err)
	}
	fmt.Fprintf(w, "cluster as seen by %s (routing epoch %d, %d members)\n\n",
		table.Node, table.Epoch, len(table.Members))

	fmt.Fprintln(w, "members:")
	for _, m := range table.Members {
		var health server.ClusterHealthResponse
		if err := getJSON(client, m.Addr+"/v1/cluster/health", &health); err != nil {
			fmt.Fprintf(w, "  %-12s %-28s UNREACHABLE (%v)\n", m.ID, m.Addr, err)
			continue
		}
		fmt.Fprintf(w, "  %-12s %-28s up      epoch=%d", m.ID, m.Addr, health.Epoch)
		if health.Epoch != table.Epoch {
			fmt.Fprintf(w, " (STALE, expected %d)", table.Epoch)
		}
		fmt.Fprintln(w)
		for _, fed := range sortedKeys(health.Replication) {
			fmt.Fprintf(w, "      serves %-12s replication=%s\n", fed, health.Replication[fed])
		}
		for _, peer := range sortedKeys(health.Peers) {
			ph := health.Peers[peer]
			fmt.Fprintf(w, "      sees   %-12s %-8s", peer, ph.Status)
			if ph.Misses > 0 {
				fmt.Fprintf(w, " misses=%d", ph.Misses)
			}
			if ph.RTTMS > 0 {
				fmt.Fprintf(w, " rtt=%.1fms", ph.RTTMS)
			}
			fmt.Fprintln(w)
		}
	}

	fmt.Fprintln(w, "\nplacements:")
	for _, fed := range sortedKeys(table.Placements) {
		p := table.Placements[fed]
		fmt.Fprintf(w, "  %-16s owner=%-12s", fed, p.Owner)
		if p.Standby != "" {
			fmt.Fprintf(w, " standby=%-12s", p.Standby)
		}
		fmt.Fprintf(w, " state@%s=%s\n", table.Node, p.State)
	}
	return nil
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func runAll(w io.Writer, opts experiments.MREOptions, seed int64, sf float64) error {
	if err := printPricing(w); err != nil {
		return err
	}
	if err := printTable2(w); err != nil {
		return err
	}
	if err := printTable3(w, opts); err != nil {
		return err
	}
	if err := printTable4(w, opts); err != nil {
		return err
	}
	if err := printFig3(w, seed); err != nil {
		return err
	}
	if err := printExample31(w, seed); err != nil {
		return err
	}
	if err := printAblations(w, seed); err != nil {
		return err
	}
	return runQuery(w, seed, sf, tpch.QueryQ12)
}
