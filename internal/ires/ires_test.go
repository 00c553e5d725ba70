package ires

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
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
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, seed)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := federation.NewScaledExecutor(fed, cal, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchedulerWithConfig(fed, exec, model, SchedulerConfig{NodeChoices: []int{1, 2, 4, 8}, Seed: seed})
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
	if _, err := NewSchedulerWithConfig(nil, nil, nil, SchedulerConfig{}); err == nil {
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
// decision's estimate, bit for bit, while 50 more rounds reuse the
// released storage (each records an execution, so their predictions
// differ). The sweep itself does not: the release empties it, drops the
// round's history and model from the pooled buffer, and under -race
// poisons the front's rows with NaN and its indices with -1, so a view
// into it that survived fails at once instead of reading another
// sweep's rows.
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
	estimated := slices.Clone(dec.Estimated)
	front, normalized, frontIdx := sw.FrontCosts, sw.Normalized, sw.FrontIdx // views kept past the release
	buf := sw.buf

	s.ReleaseSweep(sw)
	if sw.Costs.Len() != 0 || len(sw.FrontIdx) != 0 || sw.FrontCosts.Len() != 0 || sw.Normalized.Len() != 0 {
		t.Fatalf("the released sweep still holds %d rows, a front of %d", sw.Costs.Len(), len(sw.FrontIdx))
	}
	if buf.ps != (planSweeper{}) || buf.snap.Len() != 0 {
		t.Fatalf("the pooled buffer still holds the round's planSweeper or its snapshot of %d observations", buf.snap.Len())
	}
	if raceEnabled {
		for j, i := range frontIdx {
			if i != -1 {
				t.Fatalf("front index %d reads %d after the release, want the -1 poison", j, i)
			}
		}
		for i := 0; i < front.Len(); i++ {
			for j, v := range append(front.Row(i), normalized.Row(i)...) {
				if !math.IsNaN(v) {
					t.Fatalf("front row %d value %d reads %v after the release, want the NaN poison", i, j, v)
				}
			}
		}
	}
	for round := 0; round < 50; round++ {
		if _, err := s.Submit(tpch.QueryQ12, pol); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if !equalBits(dec.Estimated, estimated) {
		t.Errorf("Decision.Estimated %v, was %v", dec.Estimated, estimated)
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

// TestOptimizersrequireHistory: the decision path's plan search,
// PlanSweep, and the round built on it refuse a query with no history.
func TestOptimizersrequireHistory(t *testing.T) {
	s := testScheduler(t, dreamModel(t), 8)
	if _, err := s.PlanSweep(context.Background(), tpch.QueryQ12); !errors.Is(err, ErrNoHistory) {
		t.Errorf("PlanSweep without history: got %v, want ErrNoHistory", err)
	}
	if _, err := s.Submit(tpch.QueryQ12, Policy{}); !errors.Is(err, ErrNoHistory) {
		t.Errorf("Submit without history: got %v, want ErrNoHistory", err)
	}
}

// TestServedShapeInline: the federation's plan features and cost metrics
// fit the shape a window fit and a Decision hold inline, so a served
// round takes no model or estimate storage from the heap.
func TestServedShapeInline(t *testing.T) {
	if federation.FeatureDim > core.InlineFeatures || len(federation.Metrics) > core.InlineMetrics {
		t.Errorf("plans have %d features and %d metrics; the inline shape is %d features, %d metrics",
			federation.FeatureDim, len(federation.Metrics), core.InlineFeatures, core.InlineMetrics)
	}
}
