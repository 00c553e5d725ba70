package ires

import (
	"errors"
	"math"
	"testing"

	"repro/internal/moo"
	"repro/internal/tpch"
)

// TestSubmitSelectionStrategies exercises the future-work Pareto
// selection rules end to end through the scheduler.
func TestSubmitSelectionStrategies(t *testing.T) {
	s := testScheduler(t, dreamModel(t), 41)
	if err := s.Bootstrap(tpch.QueryQ12, 40); err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{
		{Strategy: WeightedSumSelection, Weights: []float64{1, 1}},
		{Strategy: KneeSelection},
		{Strategy: LexicographicSelection, LexOrder: []int{0, 1}, LexTolerance: 0.05},
		{Strategy: LexicographicSelection}, // defaults path
	} {
		dec, err := s.Submit(tpch.QueryQ12, pol)
		if err != nil {
			t.Fatalf("strategy %v: %v", pol.Strategy, err)
		}
		if dec.Outcome == nil || dec.Outcome.TimeS <= 0 {
			t.Fatalf("strategy %v: no outcome", pol.Strategy)
		}
	}
}

// TestBestWithConstraints pins Algorithm 2 as the scheduler applies it
// — constraints on the raw costs, the weighted sum on the normalized
// ones — including the fallback to the whole set, and that a selection
// on the serving path does not allocate.
func TestBestWithConstraints(t *testing.T) {
	raw, err := moo.NewCostMatrix([][]float64{{90, 1}, {40, 4}, {40, 4}, {10, 9}})
	if err != nil {
		t.Fatal(err)
	}
	normalized := moo.NormalizeCosts(nil, raw)
	for _, tc := range []struct {
		name                 string
		weights, constraints []float64
		want                 int
	}{
		{"unconstrained, first of tied minima", []float64{1, 1}, nil, 1},
		{"raw bound leaves one plan", []float64{1, 1}, []float64{20}, 3},
		{"raw bounds leave the tied pair and the cheap plan", []float64{1, 1}, []float64{95, 5}, 1},
		{"no feasible plan → whole-set winner", []float64{1, 3}, []float64{5, 0.5}, 0},
		{"bounds past the cost dimension constrain nothing", []float64{3, 1}, []float64{100, 100, 0}, 3},
	} {
		got, err := bestWithConstraints(raw, normalized, tc.weights, tc.constraints)
		if err != nil || got != tc.want {
			t.Errorf("%s: got %d, %v; want %d", tc.name, got, err, tc.want)
		}
	}
	if _, err := bestWithConstraints(raw, normalized, []float64{0, 0}, []float64{20}); !errors.Is(err, moo.ErrWeights) {
		t.Errorf("zero weights: got %v, want ErrWeights", err)
	}
	if _, err := bestWithConstraints(raw, normalized, []float64{1}, nil); !errors.Is(err, moo.ErrDimension) {
		t.Errorf("short weights: got %v, want ErrDimension", err)
	}
	if _, err := bestWithConstraints(moo.CostMatrix{}, moo.CostMatrix{}, []float64{1, 1}, []float64{20}); !errors.Is(err, moo.ErrNoPlans) {
		t.Errorf("empty set: got %v, want ErrNoPlans", err)
	}

	sw := &Sweep{FrontIdx: []int{0, 1, 2, 3}, FrontCosts: raw, Normalized: normalized}
	for _, pol := range []Policy{{}, {Weights: []float64{1, 3}, Constraints: []float64{95, 5}}, {Constraints: []float64{5, 0.5}}} {
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := sw.Select(pol); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("policy %+v: %v allocations per selection, want 0", pol, allocs)
		}
	}
}

// TestSelectOnAllNaNSweep: a sweep whose estimates are NaN (a model
// with a NaN coefficient) is an error, not a panic or a plan index of
// -1 — under "lex" when every plan is NaN, and under the weighted sum
// when every plan within the bounds is.
func TestSelectOnAllNaNSweep(t *testing.T) {
	nan := math.NaN()
	allNaN := [][]float64{{nan, nan}, {nan, nan}}
	nanFeasible := [][]float64{{nan, nan}, {1, 1}, {2, 2}}
	for _, tc := range []struct {
		raw [][]float64
		pol Policy
	}{
		{allNaN, Policy{Strategy: LexicographicSelection}},
		{nanFeasible, Policy{Constraints: []float64{0.5}}},
	} {
		raw, err := moo.NewCostMatrix(tc.raw)
		if err != nil {
			t.Fatal(err)
		}
		sw := &Sweep{FrontIdx: []int{0, 1, 2}[:len(tc.raw)], FrontCosts: raw, Normalized: moo.NormalizeCosts(nil, raw)}
		if i, err := sw.Select(tc.pol); !errors.Is(err, moo.ErrIncomparable) {
			t.Errorf("%+v: Select = %d, %v; want ErrIncomparable", tc.pol, i, err)
		}
		if _, err := (&Scheduler{}).DecideFromSweep(sw, tc.pol); !errors.Is(err, moo.ErrIncomparable) {
			t.Errorf("%+v: DecideFromSweep = %v; want ErrIncomparable", tc.pol, err)
		}
	}
}
