package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/tpch"
)

// PruneTolerance is the decision-quality bound the pruned sweep is held
// to: every metric of the plan Select picks from a GreedyPrune sweep
// must be within this relative distance of the plan the full sweep
// picks. The CI smoke (make ablate-prune) fails when drift exceeds it.
const PruneTolerance = 0.15

// PruneAblationRow is one lattice size of the full-vs-pruned study.
type PruneAblationRow struct {
	// MaxNodes is the per-site cluster cap; the WideTopology lattice has
	// 2·MaxNodes² QEPs.
	MaxNodes int
	// PlanSpace is the full lattice size; FullEstimated and
	// PrunedEstimated are the QEPs each policy actually scored.
	PlanSpace       int
	FullEstimated   int
	PrunedEstimated int
	// FullMS and PrunedMS time one warm PlanSweep (model fit amortized
	// by the cache, so the contrast isolates per-plan estimation work).
	FullMS   float64
	PrunedMS float64
	// CountReduction = PlanSpace / PrunedEstimated — the deterministic
	// measure of sweep-cost reduction the smoke test gates on.
	CountReduction float64
	// MaxRelDelta is the worst per-metric relative difference between
	// the plans Select picks from the two sweeps, maximized over the
	// studied policy weightings.
	MaxRelDelta float64
}

// pruneStack assembles one WideTopology scheduler for the study; both
// arms call it with the same seed so their bootstrapped histories — and
// therefore their fitted models — are identical.
func pruneStack(seed int64, maxNodes int, prune ires.PrunePolicy) (*ires.Scheduler, error) {
	fed, err := federation.WideTopology(seed, maxNodes)
	if err != nil {
		return nil, err
	}
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, seed)
	if err != nil {
		return nil, err
	}
	return ires.NewDREAMScheduler(fed, cal, 0.05, ires.SchedulerConfig{
		NodeChoices: federation.NodeRange(maxNodes),
		Seed:        seed,
		Prune:       prune,
	})
}

// timedSweep runs one untimed warm-up PlanSweep (paying the shared
// window-search fit) and then times a second, returning it.
func timedSweep(s *ires.Scheduler, q tpch.QueryID) (*ires.Sweep, float64, error) {
	ctx := context.Background()
	warm, err := s.PlanSweep(ctx, q)
	if err != nil {
		return nil, 0, err
	}
	s.ReleaseSweep(warm) // the timed sweep reuses its matrix, as a server's does
	start := time.Now()
	sw, err := s.PlanSweep(ctx, q)
	if err != nil {
		return nil, 0, err
	}
	return sw, float64(time.Since(start).Microseconds()) / 1000, nil
}

// AblationPrune contrasts the default full sweep with GreedyPrune on
// identically seeded WideTopology federations at several lattice sizes,
// up to the paper's Example 3.1 regime (18,200+ QEPs at maxNodes 96).
// Both arms bootstrap the same history; Select (which does not execute)
// then picks a plan from each sweep under several policy weightings and
// the rows report how far the pruned decision's cost vector drifts from
// the full one, alongside the count- and time-based sweep-cost savings.
func AblationPrune(opts AblationOptions) ([]PruneAblationRow, *Table, error) {
	opts.setDefaults()
	const q = tpch.QueryQ12
	policies := []ires.Policy{
		{Weights: []float64{1, 1}},
		{Weights: []float64{2, 1}},
		{Weights: []float64{1, 2}},
	}

	var rows []PruneAblationRow
	for _, maxNodes := range []int{10, 32, 96} {
		full, err := pruneStack(opts.Seed, maxNodes, nil)
		if err != nil {
			return nil, nil, err
		}
		pruned, err := pruneStack(opts.Seed, maxNodes, ires.GreedyPrune(0))
		if err != nil {
			return nil, nil, err
		}
		if err := full.Bootstrap(q, 24); err != nil {
			return nil, nil, err
		}
		if err := pruned.Bootstrap(q, 24); err != nil {
			return nil, nil, err
		}
		fsw, fullMS, err := timedSweep(full, q)
		if err != nil {
			return nil, nil, err
		}
		gsw, prunedMS, err := timedSweep(pruned, q)
		if err != nil {
			return nil, nil, err
		}

		var worst float64
		for _, pol := range policies {
			fi, err := fsw.Select(pol)
			if err != nil {
				return nil, nil, err
			}
			gi, err := gsw.Select(pol)
			if err != nil {
				return nil, nil, err
			}
			for m, fc := range fsw.Costs.Row(fi) {
				gc := gsw.Costs.Row(gi)[m]
				denom := math.Max(math.Abs(fc), 1e-12)
				if d := math.Abs(gc-fc) / denom; d > worst {
					worst = d
				}
			}
		}
		rows = append(rows, PruneAblationRow{
			MaxNodes:        maxNodes,
			PlanSpace:       fsw.PlanSpace,
			FullEstimated:   fsw.PlansEstimated,
			PrunedEstimated: gsw.PlansEstimated,
			FullMS:          fullMS,
			PrunedMS:        prunedMS,
			CountReduction:  float64(fsw.PlanSpace) / float64(gsw.PlansEstimated),
			MaxRelDelta:     worst,
		})
	}

	t := &Table{
		Title: "Ablation: full vs GreedyPrune plan sweeps (Q12, WideTopology).",
		Header: []string{"Max nodes", "Plan space", "Estimated (full)", "Estimated (greedy)",
			"Full sweep", "Greedy sweep", "Count reduction", "Max decision drift"},
		Notes: []string{
			fmt.Sprintf("decision drift is the worst per-metric relative delta of the Select-chosen cost vectors (tolerance %.2f)", PruneTolerance),
			"greedy uses the default budget; lattices under it fall back to a full sweep",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.MaxNodes),
			fmt.Sprintf("%d", r.PlanSpace),
			fmt.Sprintf("%d", r.FullEstimated),
			fmt.Sprintf("%d", r.PrunedEstimated),
			fmt.Sprintf("%.1f ms", r.FullMS),
			fmt.Sprintf("%.1f ms", r.PrunedMS),
			fmt.Sprintf("%.1fx", r.CountReduction),
			fmt.Sprintf("%.3f", r.MaxRelDelta),
		})
	}
	return rows, t, nil
}
