package ires

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/tpch"
)

// buildWideStack is buildStack on a WideTopology federation: both sites
// accept clusters up to maxNodes VMs and the dense NodeRange menu is
// used, so the QEP lattice has 2×maxNodes² plans — the knob the pruning
// tests and ablation turn to reach the paper's Example 3.1 regime.
func buildWideStack(t *testing.T, seed int64, maxNodes int, cfg SchedulerConfig) *Scheduler {
	t.Helper()
	return wideStack(t, seed, maxNodes, stackModel(t, 0), cfg)
}

// renderSweep serializes the full estimated set — plans, cost vectors,
// Pareto front, bookkeeping — for byte-level comparison.
func renderSweep(sw *Sweep) string {
	out := fmt.Sprintf("q=%v space=%d est=%d policy=%s front=%v\n",
		sw.Query, sw.PlanSpace, sw.PlansEstimated, sw.Policy, sw.FrontIdx)
	for i, p := range sw.Plans {
		out += fmt.Sprintf("%v %v\n", p, sw.Costs.Row(i))
	}
	return out
}

// TestFullSweepExplicitMatchesDefault pins the API contract that a nil
// Prune and an explicit FullSweep() are the same policy: byte-identical
// sweeps.
func TestFullSweepExplicitMatchesDefault(t *testing.T) {
	def := buildStack(t, 7, SchedulerConfig{Seed: 7})
	full := buildStack(t, 7, SchedulerConfig{Seed: 7, Prune: FullSweep()})
	for _, s := range []*Scheduler{def, full} {
		if err := s.Bootstrap(tpch.QueryQ12, 25); err != nil {
			t.Fatal(err)
		}
	}
	a, err := def.PlanSweep(context.Background(), tpch.QueryQ12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := full.PlanSweep(context.Background(), tpch.QueryQ12)
	if err != nil {
		t.Fatal(err)
	}
	if renderSweep(a) != renderSweep(b) {
		t.Fatalf("nil Prune and FullSweep() diverge:\n%s\nvs\n%s", renderSweep(a), renderSweep(b))
	}
	if a.PlanSpace != len(a.Plans) || a.PlansEstimated != len(a.Plans) || a.Policy != "full" {
		t.Fatalf("full-sweep bookkeeping: space=%d est=%d policy=%q plans=%d",
			a.PlanSpace, a.PlansEstimated, a.Policy, len(a.Plans))
	}
}

// TestPrunedSweepCachedMatchesUncached extends the byte-identical
// guarantee to pruned sweeps: same seed + policy must produce the same
// estimated set, costs and front with the model cache on or off.
func TestPrunedSweepCachedMatchesUncached(t *testing.T) {
	const maxNodes = 24 // 2×24×24 = 1,152 plans
	t.Run("greedy", func(t *testing.T) {
		cfg := SchedulerConfig{Seed: 42, Prune: GreedyPrune(160)}
		uncached := wideStack(t, 42, maxNodes, stackModel(t, -1), cfg)
		cached := buildWideStack(t, 42, maxNodes, cfg)
		for _, s := range []*Scheduler{uncached, cached} {
			if err := s.Bootstrap(tpch.QueryQ12, 25); err != nil {
				t.Fatal(err)
			}
		}
		a, err := uncached.PlanSweep(context.Background(), tpch.QueryQ12)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cached.PlanSweep(context.Background(), tpch.QueryQ12)
		if err != nil {
			t.Fatal(err)
		}
		got, want := renderSweep(b), renderSweep(a)
		if got != want {
			t.Fatalf("greedy sweep depends on the model cache:\nuncached:\n%s\ncached:\n%s", want, got)
		}
		if a.PlansEstimated >= a.PlanSpace {
			t.Fatalf("greedy did not prune: estimated %d of %d", a.PlansEstimated, a.PlanSpace)
		}
	})
}

// TestGreedyPruneDecisionWithinTolerance is the property test behind
// the ablation: across seeds and federation sizes, the plan GreedyPrune
// selects must have an estimated cost vector within
// experiments' 15% tolerance of the full sweep's choice, on every
// metric and for more than one policy weighting. (Both sweeps run
// against identically bootstrapped histories; Select does not execute,
// so the comparison is exact.)
func TestGreedyPruneDecisionWithinTolerance(t *testing.T) {
	const tolerance = 0.15
	sizes := []int{16, 24, 32} // 512, 1,152, 2,048 plans
	seeds := []int64{1, 2, 3}
	policies := []Policy{
		{Weights: []float64{1, 1}},
		{Weights: []float64{2, 1}},
		{Weights: []float64{1, 2}},
	}
	for _, maxNodes := range sizes {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("n%d/seed%d", maxNodes, seed), func(t *testing.T) {
				// Budget low enough that every size actually prunes.
				budget := 2 * maxNodes * maxNodes / 8
				full := buildWideStack(t, seed, maxNodes, SchedulerConfig{Seed: seed})
				greedy := buildWideStack(t, seed, maxNodes, SchedulerConfig{Seed: seed, Prune: GreedyPrune(budget)})
				for _, s := range []*Scheduler{full, greedy} {
					if err := s.Bootstrap(tpch.QueryQ12, 25); err != nil {
						t.Fatal(err)
					}
				}
				fsw, err := full.PlanSweep(context.Background(), tpch.QueryQ12)
				if err != nil {
					t.Fatal(err)
				}
				gsw, err := greedy.PlanSweep(context.Background(), tpch.QueryQ12)
				if err != nil {
					t.Fatal(err)
				}
				if gsw.PlansEstimated >= gsw.PlanSpace {
					t.Fatalf("greedy did not prune: %d of %d", gsw.PlansEstimated, gsw.PlanSpace)
				}
				for _, pol := range policies {
					fi, err := fsw.Select(pol)
					if err != nil {
						t.Fatal(err)
					}
					gi, err := gsw.Select(pol)
					if err != nil {
						t.Fatal(err)
					}
					fc, gc := fsw.Costs.Row(fi), gsw.Costs.Row(gi)
					for m := range fc {
						denom := math.Max(math.Abs(fc[m]), 1e-9)
						if delta := math.Abs(gc[m]-fc[m]) / denom; delta > tolerance {
							t.Errorf("weights %v metric %d: greedy %.4f vs full %.4f (Δ %.1f%% > %.0f%%)",
								pol.Weights, m, gc[m], fc[m], 100*delta, 100*tolerance)
						}
					}
				}
			})
		}
	}
}

// TestGreedyPruneSmallLatticeFallsBackToFull: lattices within budget
// are swept in full, so small federations keep the exact reference
// behavior (modulo the policy label).
func TestGreedyPruneSmallLatticeFallsBackToFull(t *testing.T) {
	full := buildStack(t, 5, SchedulerConfig{Seed: 5})
	greedy := buildStack(t, 5, SchedulerConfig{Seed: 5, Prune: GreedyPrune(0)})
	for _, s := range []*Scheduler{full, greedy} {
		if err := s.Bootstrap(tpch.QueryQ12, 25); err != nil {
			t.Fatal(err)
		}
	}
	a, err := full.PlanSweep(context.Background(), tpch.QueryQ12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := greedy.PlanSweep(context.Background(), tpch.QueryQ12)
	if err != nil {
		t.Fatal(err)
	}
	// Default topology with default choices: well under the 256 floor.
	if b.PlansEstimated != b.PlanSpace {
		t.Fatalf("small lattice pruned: %d of %d", b.PlansEstimated, b.PlanSpace)
	}
	if b.Policy != "greedy" {
		t.Fatalf("policy label = %q", b.Policy)
	}
	for i := 0; i < a.Costs.Len(); i++ {
		for m, c := range a.Costs.Row(i) {
			if c != b.Costs.Row(i)[m] {
				t.Fatalf("plan %d metric %d: %v vs %v", i, m, a.Costs.Row(i), b.Costs.Row(i))
			}
		}
	}
}

// TestSchedulerRejectsBadNodeChoices: assembly fails fast on malformed
// menus instead of surfacing a lattice error on the first request.
func TestSchedulerRejectsBadNodeChoices(t *testing.T) {
	fed, err := federation.DefaultTopology(1)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, 1)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := federation.NewScaledExecutor(fed, cal, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewDREAMModel(core.Config{MMax: MMax})
	if err != nil {
		t.Fatal(err)
	}
	for _, choices := range [][]int{{0}, {-1, 2}, {2, 2}} {
		if _, err := NewSchedulerWithConfig(fed, exec, model, SchedulerConfig{NodeChoices: choices, Seed: 1}); err == nil {
			t.Errorf("NewSchedulerWithConfig accepted node choices %v", choices)
		}
	}
}
