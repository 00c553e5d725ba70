// Hospital data sharing across a cloud federation — the scenario the
// paper opens with (and its Example 2.1): patient records live in one
// hospital's cloud (a Hive deployment on Amazon), visit/billing records
// in another (PostgreSQL on Microsoft Azure). A cross-hospital study
// joins the two, and MIDAS must pick a Query Execution Plan under the
// clinician's policy:
//
//   - an emergency diagnosis wants answers fast, money is secondary;
//   - a retrospective research study runs on a grant budget.
//
// The TPC-H tables play the medical roles (orders = hospital visits,
// customer = patients): Q13 computes the distribution of visits per
// patient, a staple epidemiology query.
//
// Run with: go run ./examples/hospital_sharing
package main

import (
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/tpch"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	const seed = 11

	fmt.Fprintln(w, "MIDAS federated medical study: visits-per-patient distribution (TPC-H Q13)")
	fmt.Fprintln(w)

	// The federation: hospital A's cloud (Hive on Amazon a1.xlarge)
	// holds the big fact tables; hospital B's cloud (PostgreSQL on
	// Azure B2MS) holds the reference tables.
	fed, err := federation.DefaultTopology(seed)
	if err != nil {
		return err
	}
	for _, name := range slices.Sorted(maps.Keys(fed.Sites)) {
		site := fed.Sites[name]
		fmt.Fprintf(w, "site %-15s provider=%-9s engine=%-8s instance=%s (max %d nodes)\n",
			name, site.Provider.Name, site.Engine.Name, site.Instance, site.MaxNodes)
	}
	fmt.Fprintln(w)

	// Calibrate engine statistics once, then run the shared dataset at
	// ≈100 MiB scale.
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, seed)
	if err != nil {
		return err
	}
	sched, err := ires.NewDREAMScheduler(fed, cal, 0.1, ires.SchedulerConfig{NodeChoices: []int{1, 2, 4, 8}, Seed: seed})
	if err != nil {
		return err
	}

	// Warm the execution history (IReS needs observations before its
	// Modelling module can estimate).
	if err := sched.Bootstrap(tpch.QueryQ13, 30); err != nil {
		return err
	}

	// Policy 1: emergency — minimize time, generous budget.
	emergency := ires.Policy{Weights: []float64{1, 0.05}}
	dec, err := sched.Submit(tpch.QueryQ13, emergency)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "EMERGENCY policy (time-weighted):")
	report(w, dec)

	// Policy 2: research — minimize money, and hard-cap the time at
	// twice the emergency plan's estimate (Algorithm 2's constraint B).
	research := ires.Policy{
		Weights:     []float64{0.05, 1},
		Constraints: []float64{dec.Estimated[0] * 2},
	}
	dec2, err := sched.Submit(tpch.QueryQ13, research)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "RESEARCH policy (budget-weighted, time ≤ 2× emergency estimate):")
	report(w, dec2)

	if dec2.Outcome.MoneyUSD <= dec.Outcome.MoneyUSD {
		fmt.Fprintln(w, "the research plan spent no more money than the emergency plan, as requested")
	}
	return nil
}

func report(w io.Writer, dec *ires.Decision) {
	fmt.Fprintf(w, "  plan space %d QEPs → Pareto set %d\n", dec.PlanSpace, dec.ParetoSize)
	fmt.Fprintf(w, "  chosen: %v\n", dec.Plan)
	fmt.Fprintf(w, "  estimated: %.1f s / $%.5f   measured: %.1f s / $%.5f\n",
		dec.Estimated[0], dec.Estimated[1], dec.Outcome.TimeS, dec.Outcome.MoneyUSD)
	fmt.Fprintf(w, "  breakdown: prep %.1fs|%.1fs  ship %.1fs (%.1f MiB)  final %.1fs\n\n",
		dec.Outcome.LeftTimeS, dec.Outcome.RightTimeS, dec.Outcome.ShipTimeS,
		dec.Outcome.ShippedBytes/1024/1024, dec.Outcome.FinalTimeS)
}
