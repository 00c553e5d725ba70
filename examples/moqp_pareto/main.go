// Multi-Objective Query Processing, two ways (the paper's Figure 3).
//
// It first shows the paper's optimizer, NSGA-II, on a textbook problem
// (Schaffer's two-objective function), so the machinery can be seen
// working without the federation around it.
//
// It then shows the path the scheduler runs on the federated plan
// space: one exact sweep decides over every plan once and keeps its
// Pareto set, and each user policy just selects inside it (Algorithm 2)
// — beside the Weighted Sum Model, which scalarizes the whole space
// again for every policy.
//
// Run with: go run ./examples/moqp_pareto
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/moo"
	"repro/internal/tpch"
)

// schaffer is the classic single-variable bi-objective problem:
// f1 = x², f2 = (x−2)²; Pareto set is x ∈ [0, 2].
type schaffer struct{}

func (schaffer) Bounds() (lo, hi []float64) { return []float64{-10}, []float64{10} }
func (schaffer) Evaluate(x []float64) []float64 {
	return []float64{x[0] * x[0], (x[0] - 2) * (x[0] - 2)}
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// Part 1: NSGA-II on Schaffer's problem.
	res, err := moo.NSGAII(schaffer{}, moo.NSGAIIConfig{PopSize: 40, Generations: 40, Seed: 3})
	if err != nil {
		return err
	}
	sort.Slice(res.Front, func(i, j int) bool { return res.Front[i].Costs[0] < res.Front[j].Costs[0] })
	fmt.Fprintf(w, "NSGA-II on Schaffer's problem: %d Pareto points from %d evaluations\n",
		len(res.Front), res.Evaluations)
	for i, ind := range res.Front {
		if i%8 == 0 {
			fmt.Fprintf(w, "  x=%6.3f  f=(%.3f, %.3f)\n", ind.X[0], ind.Costs[0], ind.Costs[1])
		}
	}
	fmt.Fprintln(w)

	// Part 2: the federated plan space, as the scheduler optimizes it.
	const seed = 23
	fed, err := federation.DefaultTopology(seed)
	if err != nil {
		return err
	}
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, seed)
	if err != nil {
		return err
	}
	sched, err := ires.NewDREAMScheduler(fed, cal, 0.1, ires.SchedulerConfig{NodeChoices: []int{1, 2, 4, 8, 16}, Seed: seed})
	if err != nil {
		return err
	}
	if err := sched.Bootstrap(tpch.QueryQ14, 30); err != nil {
		return err
	}

	sw, err := sched.PlanSweep(context.Background(), tpch.QueryQ14)
	if err != nil {
		return err
	}
	defer sched.ReleaseSweep(sw)
	lat := sw.Lattice
	fmt.Fprintf(w, "exact sweep: %d plans scored once, Pareto plan set of %d plans\n", lat.Size(), len(sw.FrontIdx))
	for j, i := range sw.FrontIdx {
		c := sw.FrontCosts.Row(j)
		fmt.Fprintf(w, "  %-34v est time %7.2f s   est money $%.5f\n", lat.At(i), c[0], c[1])
	}
	fmt.Fprintln(w)

	policies := []struct {
		name string
		pol  ires.Policy
	}{
		{"fast (90% time)", ires.Policy{Weights: []float64{0.9, 0.1}}},
		{"balanced", ires.Policy{Weights: []float64{0.5, 0.5}}},
		{"cheap (90% money)", ires.Policy{Weights: []float64{0.1, 0.9}}},
	}
	fmt.Fprintln(w, "policy changes: BestInPareto selects within the Pareto set; WSM scores every plan again")
	normalized := moo.NormalizeCosts(nil, sw.AllCosts())
	for _, pc := range policies {
		best, err := sw.Select(pc.pol)
		if err != nil {
			return err
		}
		wsm, err := moo.ArgminWeightedSum(normalized, pc.pol.Weights)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-18s Pareto→ %-32v WSM→ %-32v (+%d evals)\n",
			pc.name, lat.At(best), lat.At(wsm), lat.Size())
	}
	fmt.Fprintf(w, "\ntotals: the sweep pays %d evaluations once; WSM pays %d across %d policies\n",
		lat.Size(), len(policies)*lat.Size(), len(policies))
	return nil
}
