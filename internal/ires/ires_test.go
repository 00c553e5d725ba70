package ires

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/moo"
	"repro/internal/tpch"
)

// testScheduler wires a scheduler over the scaled executor at a small
// simulated size so tests run in milliseconds.
func testScheduler(t *testing.T, model CostModel, seed int64) *Scheduler {
	t.Helper()
	fed, err := federation.DefaultTopology(seed)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := federation.Calibrate(fed, 0.004, seed)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := federation.NewScaledExecutor(fed, cal, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(fed, exec, model, []int{1, 2, 4, 8}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func dreamModel(t *testing.T) *DREAMModel {
	t.Helper()
	m, err := NewDREAMModel(core.Config{RequiredR2: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(nil, nil, nil, nil, 0); err == nil {
		t.Error("nil dependencies accepted")
	}
}

func TestNewDREAMModelValidation(t *testing.T) {
	if _, err := NewDREAMModel(core.Config{RequiredR2: 2}); err == nil {
		t.Error("invalid DREAM config accepted")
	}
}

func TestSubmitWithoutHistory(t *testing.T) {
	s := testScheduler(t, dreamModel(t), 1)
	if _, err := s.Submit(tpch.QueryQ12, Policy{}); !errors.Is(err, ErrNoHistory) {
		t.Fatalf("got %v, want ErrNoHistory", err)
	}
}

func TestBootstrapAndSubmitDREAM(t *testing.T) {
	s := testScheduler(t, dreamModel(t), 2)
	if err := s.Bootstrap(tpch.QueryQ12, 30); err != nil {
		t.Fatal(err)
	}
	if s.History(tpch.QueryQ12).Len() != 30 {
		t.Fatalf("history = %d, want 30", s.History(tpch.QueryQ12).Len())
	}
	dec, err := s.Submit(tpch.QueryQ12, Policy{Weights: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome == nil || dec.Outcome.TimeS <= 0 {
		t.Fatal("no outcome")
	}
	if dec.PlanSpace == 0 || dec.ParetoSize == 0 || dec.ParetoSize > dec.PlanSpace {
		t.Errorf("plan space %d / pareto %d inconsistent", dec.PlanSpace, dec.ParetoSize)
	}
	if len(dec.Estimated) != len(federation.Metrics) {
		t.Errorf("estimate dim = %d", len(dec.Estimated))
	}
	// The execution must have been recorded.
	if s.History(tpch.QueryQ12).Len() != 31 {
		t.Errorf("history = %d after submit, want 31", s.History(tpch.QueryQ12).Len())
	}
}

func TestSubmitRespectsTimeWeight(t *testing.T) {
	// A strongly time-weighted policy should pick a plan at least as
	// fast (by estimate) as a strongly money-weighted policy's pick.
	s := testScheduler(t, dreamModel(t), 3)
	if err := s.Bootstrap(tpch.QueryQ14, 40); err != nil {
		t.Fatal(err)
	}
	fast, err := s.Submit(tpch.QueryQ14, Policy{Weights: []float64{1, 0.001}})
	if err != nil {
		t.Fatal(err)
	}
	cheap, err := s.Submit(tpch.QueryQ14, Policy{Weights: []float64{0.001, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Estimated[0] > cheap.Estimated[0]*1.5 {
		t.Errorf("time-weighted pick (%v s) much slower than money-weighted pick (%v s)",
			fast.Estimated[0], cheap.Estimated[0])
	}
}

func TestSubmitWithConstraints(t *testing.T) {
	s := testScheduler(t, dreamModel(t), 4)
	if err := s.Bootstrap(tpch.QueryQ12, 40); err != nil {
		t.Fatal(err)
	}
	// Unconstrained pick first, then constrain time below that pick's
	// estimate to force a different (or equal) feasible region.
	free, err := s.Submit(tpch.QueryQ12, Policy{Weights: []float64{0.001, 1}})
	if err != nil {
		t.Fatal(err)
	}
	budget := free.Estimated[0] * 0.9
	constrained, err := s.Submit(tpch.QueryQ12, Policy{
		Weights:     []float64{0.001, 1},
		Constraints: []float64{budget},
	})
	if err != nil {
		t.Fatal(err)
	}
	// If any plan fits the budget the chosen one must.
	if constrained.Estimated[0] > budget {
		// Acceptable only if nothing was feasible; verify by checking
		// the unconstrained fastest estimate.
		fastest, err := s.Submit(tpch.QueryQ12, Policy{Weights: []float64{1, 0.0001}})
		if err != nil {
			t.Fatal(err)
		}
		if fastest.Estimated[0] <= budget {
			t.Errorf("constraint %v ignored: picked %v while %v was feasible",
				budget, constrained.Estimated[0], fastest.Estimated[0])
		}
	}
}

// TestReleasedSweepKeepsDecisions pins what outlives ReleaseSweep: the
// decision's estimate and the sweep's front, bit for bit, while 50 more
// rounds reuse the released matrix (each records an execution, so their
// predictions differ). Under -race the release also poisons the matrix
// with NaN, so a view into it that survived would fail here at once.
func TestReleasedSweepKeepsDecisions(t *testing.T) {
	s := buildWideStack(t, 42, 16, SchedulerConfig{Seed: 42}) // 512 plans: two chunks
	if err := s.Bootstrap(tpch.QueryQ12, 24); err != nil {
		t.Fatal(err)
	}
	pol := Policy{Weights: []float64{1, 1}}
	sw, err := s.PlanSweep(context.Background(), tpch.QueryQ12)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := s.DecideFromSweep(sw, pol)
	if err != nil {
		t.Fatal(err)
	}
	cloneRows := func(rows [][]float64) [][]float64 {
		out := make([][]float64, len(rows))
		for i, r := range rows {
			out[i] = slices.Clone(r)
		}
		return out
	}
	estimated, frontIdx := slices.Clone(dec.Estimated), slices.Clone(sw.FrontIdx)
	front, normalized := cloneRows(sw.FrontCosts), cloneRows(sw.Normalized)

	s.ReleaseSweep(sw)
	if sw.Costs.Len() != 0 {
		t.Fatalf("Costs still holds %d rows after the release", sw.Costs.Len())
	}
	s.ReleaseSweep(sw) // a no-op: the matrix must not go to two later sweeps
	for round := 0; round < 50; round++ {
		if _, err := s.Submit(tpch.QueryQ12, pol); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}

	if !equalBits(dec.Estimated, estimated) {
		t.Errorf("Decision.Estimated %v, was %v", dec.Estimated, estimated)
	}
	if !slices.Equal(sw.FrontIdx, frontIdx) {
		t.Errorf("FrontIdx %v, was %v", sw.FrontIdx, frontIdx)
	}
	for i := range front {
		if !equalBits(sw.FrontCosts[i], front[i]) || !equalBits(sw.Normalized[i], normalized[i]) {
			t.Errorf("front row %d: %v / %v, was %v / %v", i, sw.FrontCosts[i], sw.Normalized[i], front[i], normalized[i])
		}
	}
	if idx, err := sw.Select(pol); err != nil || sw.Plans[idx] != dec.Plan {
		t.Errorf("the released sweep selects %v (%v), decided %v", sw.Plans[idx], err, dec.Plan)
	}
}

func TestBMLModelWindows(t *testing.T) {
	h, err := core.NewHistory(2, "time", "money")
	if err != nil {
		t.Fatal(err)
	}
	// 40 observations of a clean linear model.
	for i := 0; i < 40; i++ {
		x1, x2 := float64(i%7+1), float64(i%5+1)
		if err := h.Append(core.Observation{
			X:     []float64{x1, x2},
			Costs: []float64{1 + 2*x1 + 3*x2, 0.1 + 0.2*x1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		mult int
		name string
	}{
		{1, "bml_1N"}, {2, "bml_2N"}, {3, "bml_3N"}, {0, "bml"},
	} {
		m := &BMLModel{WindowMultiple: tc.mult, Seed: 1}
		if m.Name() != tc.name {
			t.Errorf("Name = %q, want %q", m.Name(), tc.name)
		}
		got, err := m.EstimateSnapshot(h.Snapshot(), []float64{3, 3})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantTime := 1.0 + 2*3 + 3*3
		if math.Abs(got[0]-wantTime) > 1.5 {
			t.Errorf("%s time estimate = %v, want ≈%v", tc.name, got[0], wantTime)
		}
	}
}

func TestBMLModelEmptyHistory(t *testing.T) {
	h, err := core.NewHistory(2, "time")
	if err != nil {
		t.Fatal(err)
	}
	m := &BMLModel{}
	if _, err := m.EstimateSnapshot(h.Snapshot(), []float64{1, 2}); !errors.Is(err, ErrNoHistory) {
		t.Errorf("got %v, want ErrNoHistory", err)
	}
}

func TestDREAMModelName(t *testing.T) {
	if dreamModel(t).Name() != "dream" {
		t.Error("DREAM model name wrong")
	}
}

func TestOptimizeGAAndSelect(t *testing.T) {
	s := testScheduler(t, dreamModel(t), 5)
	if err := s.Bootstrap(tpch.QueryQ14, 40); err != nil {
		t.Fatal(err)
	}
	res, err := s.OptimizeGA(tpch.QueryQ14, moo.NSGAIIConfig{PopSize: 30, Generations: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) == 0 {
		t.Fatal("GA produced no Pareto plans")
	}
	if res.ModelEvaluations == 0 {
		t.Error("no model evaluations counted")
	}
	// The decoded plans must be valid members of the plan space.
	for _, p := range res.Plans {
		if p.NodesLeft < 1 || p.NodesRight < 1 {
			t.Errorf("invalid plan %v in front", p)
		}
	}
	// Policy selection works and differs (or not) by weights without
	// re-running the GA.
	fast, err := res.Select(Policy{Weights: []float64{1, 0.001}})
	if err != nil {
		t.Fatal(err)
	}
	cheap, err := res.Select(Policy{Weights: []float64{0.001, 1}})
	if err != nil {
		t.Fatal(err)
	}
	_ = fast
	_ = cheap
	if _, err := (&GAResult{}).Select(Policy{}); !errors.Is(err, moo.ErrNoPlans) {
		t.Errorf("empty GA result select: got %v, want ErrNoPlans", err)
	}
}

func TestOptimizeWSM(t *testing.T) {
	s := testScheduler(t, dreamModel(t), 6)
	if err := s.Bootstrap(tpch.QueryQ12, 40); err != nil {
		t.Fatal(err)
	}
	res, err := s.OptimizeWSM(tpch.QueryQ12, Policy{Weights: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelEvaluations == 0 {
		t.Error("WSM did not count evaluations")
	}
	if res.Plan.NodesLeft < 1 {
		t.Errorf("invalid WSM plan %v", res.Plan)
	}
}

func TestGAAmortizesAcrossPolicyChanges(t *testing.T) {
	// The paper's Figure 3 argument: with the GA path, K policy changes
	// need one optimization; with WSM, K full re-optimizations.
	s := testScheduler(t, dreamModel(t), 7)
	if err := s.Bootstrap(tpch.QueryQ12, 40); err != nil {
		t.Fatal(err)
	}
	ga, err := s.OptimizeGA(tpch.QueryQ12, moo.NSGAIIConfig{PopSize: 30, Generations: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	const K = 5
	gaEvals := ga.ModelEvaluations // paid once
	wsmEvals := 0
	for k := 0; k < K; k++ {
		w := float64(k+1) / K
		res, err := s.OptimizeWSM(tpch.QueryQ12, Policy{Weights: []float64{w, 1 - w + 0.01}})
		if err != nil {
			t.Fatal(err)
		}
		wsmEvals += res.ModelEvaluations
		if _, err := ga.Select(Policy{Weights: []float64{w, 1 - w + 0.01}}); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("GA evals (once): %d; WSM evals (%d policies): %d", gaEvals, K, wsmEvals)
	if wsmEvals <= 0 || gaEvals <= 0 {
		t.Fatal("evaluation counting broken")
	}
}

func TestOptimizersrequireHistory(t *testing.T) {
	s := testScheduler(t, dreamModel(t), 8)
	if _, err := s.OptimizeGA(tpch.QueryQ12, moo.NSGAIIConfig{PopSize: 10, Generations: 2}); !errors.Is(err, ErrNoHistory) {
		t.Errorf("GA without history: got %v, want ErrNoHistory", err)
	}
	if _, err := s.OptimizeWSM(tpch.QueryQ12, Policy{}); !errors.Is(err, ErrNoHistory) {
		t.Errorf("WSM without history: got %v, want ErrNoHistory", err)
	}
}
