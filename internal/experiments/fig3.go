package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/moo"
	"repro/internal/tpch"
)

// Fig3Options tunes the MOQP-approach comparison.
type Fig3Options struct {
	// PolicyChanges is how many times the user policy changes (default 5).
	PolicyChanges int
	// Seed drives the federation and workload.
	Seed int64
}

// Fig3Result carries the numbers behind the Figure 3 comparison.
type Fig3Result struct {
	// GAEvaluations is the one-off Modelling cost of building the
	// Pareto set; WSMEvaluations the cumulative cost of re-running the
	// weighted-sum path for every policy.
	GAEvaluations, WSMEvaluations int
	// GASelectionsNS is the total wall time of the per-policy Pareto
	// selections (nanoseconds) — the cheap step of the GA path.
	GASelectionsNS int64
	// Agreement counts policies where both approaches picked plans
	// whose estimated weighted score differs by less than 10%.
	Agreement, Policies int
}

// RunFig3 contrasts the paper's Figure 3 paths: Multi-Objective
// Optimization based on a genetic algorithm (NSGA-II → Pareto set →
// per-policy Algorithm 2 selection) versus repeated Weighted Sum Model
// optimization, across a sequence of user-policy changes.
func RunFig3(opts Fig3Options) (*Fig3Result, *Table, error) {
	if opts.PolicyChanges <= 0 {
		opts.PolicyChanges = 5
	}
	fed, err := federation.DefaultTopology(opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	sched, err := ires.NewDREAMScheduler(fed, cal, 0.1, ires.SchedulerConfig{NodeChoices: []int{1, 2, 4, 8, 16}, Seed: opts.Seed})
	if err != nil {
		return nil, nil, err
	}
	if err := sched.Bootstrap(tpch.QueryQ12, 40); err != nil {
		return nil, nil, err
	}

	ga, err := sched.OptimizeGA(tpch.QueryQ12, moo.NSGAIIConfig{
		PopSize: 40, Generations: 25, Seed: opts.Seed,
	})
	if err != nil {
		return nil, nil, err
	}

	res := &Fig3Result{GAEvaluations: ga.ModelEvaluations, Policies: opts.PolicyChanges}
	for k := 0; k < opts.PolicyChanges; k++ {
		w := float64(k+1) / float64(opts.PolicyChanges+1)
		pol := ires.Policy{Weights: []float64{w, 1 - w}}

		start := time.Now()
		gaPlan, err := ga.Select(pol)
		if err != nil {
			return nil, nil, err
		}
		res.GASelectionsNS += time.Since(start).Nanoseconds()

		wsm, err := sched.OptimizeWSM(tpch.QueryQ12, pol)
		if err != nil {
			return nil, nil, err
		}
		res.WSMEvaluations += wsm.ModelEvaluations

		// Score both picks with the same model estimates to compare
		// decision quality.
		gaScore, err := moo.WeightedSum(ga.Costs[slices.Index(ga.Plans, gaPlan)], pol.Weights)
		if err != nil {
			return nil, nil, err
		}
		wsmScore, err := moo.WeightedSum(wsm.Costs, pol.Weights)
		if err != nil {
			return nil, nil, err
		}
		lo, hi := gaScore, wsmScore
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi == 0 || (hi-lo)/hi < 0.10 {
			res.Agreement++
		}
	}

	t := &Table{
		Title:  "Figure 3: GA-based MOQP vs Weighted Sum Model MOQP (Q12, 100 MiB).",
		Header: []string{"Approach", "Model evaluations", "Per-policy step", "Policy agreement"},
		Rows: [][]string{
			{
				"NSGA-II + BestInPareto",
				fmt.Sprintf("%d (once)", res.GAEvaluations),
				fmt.Sprintf("%.3f ms Pareto selection", float64(res.GASelectionsNS)/1e6/float64(res.Policies)),
				fmt.Sprintf("%d/%d within 10%%", res.Agreement, res.Policies),
			},
			{
				"Weighted Sum Model",
				fmt.Sprintf("%d (%d policies × full plan space)", res.WSMEvaluations, res.Policies),
				"full re-optimization",
				"(reference)",
			},
		},
		Notes: []string{
			"the GA path pays Modelling once and reuses its Pareto set across policy changes",
		},
	}
	return res, t, nil
}
