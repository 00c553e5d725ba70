// Multi-Objective Query Processing, two ways (the paper's Figure 3).
//
// Given the same estimated plan space, this example contrasts:
//
//  1. the GA path — NSGA-II searches the plan space once, producing a
//     Pareto plan set; each user policy then just selects inside it
//     (Algorithm 2);
//  2. the Weighted Sum Model path — every policy change re-scalarizes
//     and re-optimizes the whole space.
//
// It also shows the raw optimizer on a textbook problem (Schaffer's
// two-objective function) so the NSGA-II machinery can be seen working
// without the federation around it.
//
// Run with: go run ./examples/moqp_pareto
package main

import (
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

	// Part 2: the same machinery on the federated plan space.
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

	ga, err := sched.OptimizeGA(tpch.QueryQ14, moo.NSGAIIConfig{PopSize: 40, Generations: 20, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "GA path: Pareto plan set of %d plans, built with %d model evaluations (paid once)\n",
		len(ga.Plans), ga.ModelEvaluations)
	for i, p := range ga.Plans {
		fmt.Fprintf(w, "  %-34v est time %7.2f s   est money $%.5f\n", p, ga.Costs[i][0], ga.Costs[i][1])
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
	fmt.Fprintln(w, "policy changes: GA selects within the precomputed set; WSM re-optimizes")
	totalWSM := 0
	for _, pc := range policies {
		gaPlan, err := ga.Select(pc.pol)
		if err != nil {
			return err
		}
		wsm, err := sched.OptimizeWSM(tpch.QueryQ14, pc.pol)
		if err != nil {
			return err
		}
		totalWSM += wsm.ModelEvaluations
		fmt.Fprintf(w, "  %-18s GA→ %-32v WSM→ %-32v (+%d evals)\n",
			pc.name, gaPlan, wsm.Plan, wsm.ModelEvaluations)
	}
	fmt.Fprintf(w, "\ntotals: GA %d evaluations once; WSM %d evaluations across %d policies\n",
		ga.ModelEvaluations, totalWSM, len(policies))
	return nil
}
