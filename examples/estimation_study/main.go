// Estimation study: a miniature of the paper's Tables 3 and 4.
//
// For each TPC-H query the paper studies (Q12, Q13, Q14, Q17), this
// example evaluates the five Modelling configurations — the Best-ML
// baseline over observation windows N, 2N, 3N and unbounded, and
// DREAM — on identical drifting federated workloads, and prints the
// Mean Relative Error of their execution-time estimates (eq. 15).
//
// The full-strength campaign (more repetitions, both scales) runs via
// `midasctl table3` / `midasctl table4` or the root benchmarks.
//
// Run with: go run ./examples/estimation_study
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/tpch"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	const seed = 5
	fmt.Fprintln(w, "Mini Table 3: MRE of execution-time estimates, 100 MiB federation")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-6s", "Query")
	names := []string{"BMLN", "BML2N", "BML3N", "BML", "DREAM"}
	for _, n := range names {
		fmt.Fprintf(w, "%8s", n)
	}
	fmt.Fprintln(w)

	for _, q := range tpch.AllQueries {
		h, err := workload.NewHarness(seed + int64(q))
		if err != nil {
			return err
		}
		models, err := workload.PaperModels(seed + int64(q))
		if err != nil {
			return err
		}
		res, err := h.Run(workload.EvalConfig{
			Query:       q,
			SF:          0.1, // ≈100 MiB
			HistorySize: 60,
			TestQueries: 30,
			Seed:        seed + int64(q),
		}, models)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6d", int(q))
		best := ""
		bestV := -1.0
		for _, n := range names {
			v := res.Scores[n].TimeMRE
			if best == "" || v < bestV {
				best, bestV = n, v
			}
			fmt.Fprintf(w, "%8.3f", v)
		}
		fmt.Fprintf(w, "   best: %s\n", best)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Lower is better. Expected shape (paper Tables 3/4): DREAM lowest or")
	fmt.Fprintln(w, "near-lowest on every query; unbounded-history BML degraded by drift.")
	return nil
}
