// Command midasctl drives the MIDAS/DREAM reproduction from the shell:
// it regenerates the paper's tables and figures, runs ablations, and
// demonstrates one end-to-end scheduling round.
//
// Usage:
//
//	midasctl [flags] <command>
//
// `midasctl -h` lists the commands and the flags.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
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
	var q tpch.QueryID
	var cmds []command
	for _, a := range experiments.Artefacts {
		cmds = append(cmds, command{a.Name, a.Doc, func(w io.Writer) error {
			tables, err := a.Run(experiments.MREOptions{Reps: *reps, HistorySize: *hist, TestQueries: *tests, Seed: *seed})
			return printTables(w, tables, err)
		}})
	}
	cmds = append(cmds,
		command{"run-query", "run one full pipeline round (enumerate→estimate→optimize→select→execute) and print the decision", func(w io.Writer) error {
			return runQuery(w, *seed, *sf, q)
		}},
		command{"scenarios", "print the scenario sweep: MRE, regret and latency percentiles per (arrival process × chaos profile) cell", func(w io.Writer) error {
			_, t, err := experiments.RunScenarios(experiments.ScenarioOptions{Seed: *seed, Events: *events})
			return printTables(w, []*experiments.Table{t}, err)
		}},
		command{"gen", "print generator statistics for a scale factor", func(w io.Writer) error { return printGen(w, *sf, *seed) }},
		command{"cluster-status", "print per-peer health and the routing table of the midasd cluster at -addr", func(w io.Writer) error {
			return printClusterStatus(w, *addr)
		}},
	)
	artefacts := cmds[:len(experiments.Artefacts)]
	cmds = append(cmds, command{"all", "the paper's artefacts above in order, then run-query on Q12", func(w io.Writer) error {
		for _, c := range artefacts {
			if err := c.run(w); err != nil {
				return err
			}
		}
		return runQuery(w, *seed, *sf, tpch.QueryQ12)
	}})
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: midasctl [flags] <command>\n\ncommands:\n")
		for _, c := range cmds {
			fmt.Fprintf(stderr, "  %-15s %s\n", c.name, c.doc)
		}
		fmt.Fprintf(stderr, "\nflags:\n")
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
	i := slices.IndexFunc(cmds, func(c command) bool { return c.name == fs.Arg(0) })
	if i < 0 {
		fmt.Fprintf(stderr, "midasctl: unknown command %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if err := cmds[i].run(stdout); err != nil {
		fmt.Fprintf(stderr, "midasctl: %v\n", err)
		return 1
	}
	return 0
}

// command is one midasctl command: its name, its line of help and what
// it runs, given stdout.
type command struct {
	name, doc string
	run       func(w io.Writer) error
}

// printTables prints the tables an experiment returned, or passes on
// its error.
func printTables(w io.Writer, tables []*experiments.Table, err error) error {
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Fprintln(w, t.Render())
	}
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
	model, err := ires.NewDREAMModel(core.Config{MMax: ires.MMax})
	if err != nil {
		return err
	}
	sched, err := ires.NewSchedulerWithConfig(fed, exec, model, ires.SchedulerConfig{NodeChoices: []int{1, 2, 4}, Seed: seed})
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
