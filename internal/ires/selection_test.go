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

// TestGASelectStrategies exercises the strategies on a precomputed GA
// Pareto set and checks they make characteristically different picks.
func TestGASelectStrategies(t *testing.T) {
	s := testScheduler(t, dreamModel(t), 42)
	if err := s.Bootstrap(tpch.QueryQ14, 40); err != nil {
		t.Fatal(err)
	}
	ga, err := s.OptimizeGA(tpch.QueryQ14, moo.NSGAIIConfig{PopSize: 40, Generations: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ga.Plans) < 2 {
		t.Skip("front too small to differentiate strategies")
	}
	knee, err := ga.Select(Policy{Strategy: KneeSelection})
	if err != nil {
		t.Fatal(err)
	}
	timeFirst, err := ga.Select(Policy{Strategy: LexicographicSelection, LexOrder: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	moneyFirst, err := ga.Select(Policy{Strategy: LexicographicSelection, LexOrder: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Lexicographic time-first must pick a plan at least as fast (by
	// the model's own costs) as money-first.
	costOf := func(p interface{ String() string }) []float64 {
		for i := range ga.Plans {
			if ga.Plans[i].String() == p.String() {
				return ga.Costs[i]
			}
		}
		t.Fatalf("plan %v not in front", p)
		return nil
	}
	tf, mf := costOf(timeFirst), costOf(moneyFirst)
	if tf[0] > mf[0]*1.05 {
		t.Errorf("time-first pick (%v s) slower than money-first (%v s)", tf[0], mf[0])
	}
	if mf[1] > tf[1]*1.05 {
		t.Errorf("money-first pick ($%v) dearer than time-first ($%v)", mf[1], tf[1])
	}
	_ = knee // knee needs no policy input; its validity is selecting at all
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
