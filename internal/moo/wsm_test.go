package moo

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWeightedSum(t *testing.T) {
	s, err := WeightedSum([]float64{10, 20}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s != 15 { // normalized weights 0.5/0.5
		t.Errorf("WeightedSum = %v, want 15", s)
	}
	s, err = WeightedSum([]float64{10, 20}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s != 10 {
		t.Errorf("single-objective WSM = %v, want 10", s)
	}
}

func TestWeightedSumErrors(t *testing.T) {
	if _, err := WeightedSum([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Errorf("got %v, want ErrDimension", err)
	}
	if _, err := WeightedSum([]float64{1, 2}, []float64{-1, 2}); !errors.Is(err, ErrWeights) {
		t.Errorf("negative weight: got %v, want ErrWeights", err)
	}
	if _, err := WeightedSum([]float64{1, 2}, []float64{0, 0}); !errors.Is(err, ErrWeights) {
		t.Errorf("zero weights: got %v, want ErrWeights", err)
	}
}

func TestArgminWeightedSum(t *testing.T) {
	costs := [][]float64{{10, 1}, {1, 10}, {4, 4}}
	i, err := argminRows(costs, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if i != 2 {
		t.Errorf("balanced weights pick %d, want 2", i)
	}
	i, err = argminRows(costs, []float64{1, 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if i != 1 {
		t.Errorf("time-heavy weights pick %d, want 1", i)
	}
	if _, err := argminRows(nil, []float64{1}); !errors.Is(err, ErrNoPlans) {
		t.Errorf("got %v, want ErrNoPlans", err)
	}
}

// algorithm2 is the paper's Algorithm 2 (BestInPareto) the way the
// scheduler runs it: the weighted-sum winner among the rows within the
// per-metric bounds, or among all rows when none is. Ragged rows are
// NewCostMatrix's ErrDimension.
func algorithm2(costs [][]float64, weights, constraints []float64) (int, error) {
	m, err := NewCostMatrix(costs)
	if err != nil {
		return 0, err
	}
	return ArgminWeightedSumWhere(m, weights, func(i int) bool { return WithinBounds(m.Row(i), constraints) })
}

// argminRows is ArgminWeightedSum over rows held as [][]float64.
func argminRows(costs [][]float64, weights []float64) (int, error) {
	m, err := NewCostMatrix(costs)
	if err != nil {
		return 0, err
	}
	return ArgminWeightedSum(m, weights)
}

func TestBestInParetoConstraintsSatisfiable(t *testing.T) {
	// Algorithm 2 with feasible subset: plan 0 violates the budget, so
	// the winner must come from {1, 2}.
	costs := [][]float64{
		{1, 100}, // fastest, too expensive
		{5, 10},
		{8, 5},
	}
	weights := []float64{1, 1}
	budget := []float64{math.Inf(1), 20} // money ≤ 20
	i, err := algorithm2(costs, weights, budget)
	if err != nil {
		t.Fatal(err)
	}
	if i == 0 {
		t.Error("selected plan violates the monetary constraint")
	}
	// Among feasible plans {1,2}: scores 7.5 vs 6.5 → plan 2.
	if i != 2 {
		t.Errorf("selected %d, want 2", i)
	}
}

func TestBestInParetoConstraintsUnsatisfiable(t *testing.T) {
	// Algorithm 2 line 6: no feasible plan → weighted-sum over all.
	costs := [][]float64{{10, 10}, {2, 2}}
	i, err := algorithm2(costs, []float64{1, 1}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if i != 1 {
		t.Errorf("fallback selected %d, want 1", i)
	}
}

func TestBestInParetoFewerConstraintsThanMetrics(t *testing.T) {
	// |B| < |N|: only the first metric is constrained (n ≤ |B|).
	costs := [][]float64{{10, 1}, {1, 10}}
	i, err := algorithm2(costs, []float64{1, 1}, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if i != 1 {
		t.Errorf("selected %d, want 1 (only plan with c₁ ≤ 5)", i)
	}
}

// TestBestInParetoErrors: an empty set has no winner, and a set whose
// competing scores are all NaN has none either. Bounds past the metric
// count constrain nothing here; a policy carrying them is refused before
// it reaches a selection (the server's policyOf).
func TestBestInParetoErrors(t *testing.T) {
	if _, err := algorithm2(nil, []float64{1}, nil); !errors.Is(err, ErrNoPlans) {
		t.Errorf("got %v, want ErrNoPlans", err)
	}
	nan := math.NaN()
	if _, err := algorithm2([][]float64{{nan, 1}, {nan, 2}}, []float64{1, 1}, nil); !errors.Is(err, ErrIncomparable) {
		t.Errorf("all-NaN scores: got %v, want ErrIncomparable", err)
	}
	if i, err := algorithm2([][]float64{{1}, {0}}, []float64{1}, []float64{5, 5}); err != nil || i != 1 {
		t.Errorf("extra bound: got %d, %v; want 1, nil", i, err)
	}
}

func TestNormalizeCosts(t *testing.T) {
	costs, err := NewCostMatrix([][]float64{{0, 100}, {10, 200}, {5, 150}})
	if err != nil {
		t.Fatal(err)
	}
	// Written over a used destination, whose stale values must not show.
	norm := NormalizeCosts([]float64{7, 7, 7, 7, 7, 7, 7}, costs)
	want := [][]float64{{0, 0}, {1, 1}, {0.5, 0.5}}
	if norm.Len() != len(want) {
		t.Fatalf("%d rows, want %d", norm.Len(), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got := norm.Row(i)[j]; math.Abs(got-want[i][j]) > 1e-12 {
				t.Errorf("norm[%d][%d] = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
	// Constant column maps to zero.
	costs, _ = NewCostMatrix([][]float64{{5, 1}, {5, 2}})
	norm = NormalizeCosts(nil, costs)
	if norm.Row(0)[0] != 0 || norm.Row(1)[0] != 0 {
		t.Errorf("constant column not zeroed: %v", norm)
	}
	if NormalizeCosts(nil, CostMatrix{}).Len() != 0 {
		t.Error("empty input should give an empty matrix")
	}
}

// Property: Algorithm 2 always returns an index in range, and when
// constraints admit at least one plan the winner satisfies them.
func TestPropertyBestInParetoFeasibility(t *testing.T) {
	f := func(raw []float64, b1 float64) bool {
		n := len(raw) / 2
		if n == 0 || n > 30 || math.IsNaN(b1) {
			return true
		}
		costs := make([][]float64, n)
		for i := 0; i < n; i++ {
			a, b := math.Abs(raw[2*i]), math.Abs(raw[2*i+1])
			if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
				return true
			}
			costs[i] = []float64{a, b}
		}
		budget := []float64{math.Abs(math.Mod(b1, 1000))}
		idx, err := algorithm2(costs, []float64{1, 1}, budget)
		if err != nil {
			return false
		}
		if idx < 0 || idx >= n {
			return false
		}
		anyFeasible := false
		for _, c := range costs {
			if c[0] <= budget[0] {
				anyFeasible = true
				break
			}
		}
		if anyFeasible && costs[idx][0] > budget[0] {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// bestInParetoOracle is the pre-unification selection, kept as the
// reference: filter the feasible rows of raw into a sub-matrix of
// scores, take the weighted-sum argmin with the weights re-validated per
// row, and fall back to the whole set when nothing is feasible.
func bestInParetoOracle(raw, scores [][]float64, weights, constraints []float64) (int, error) {
	argmin := func(rows [][]float64) (int, error) {
		if len(rows) == 0 {
			return 0, ErrNoPlans
		}
		best, bestScore := -1, math.Inf(1)
		for i, c := range rows {
			s, err := WeightedSum(c, weights)
			if err != nil {
				return 0, err
			}
			if s < bestScore {
				best, bestScore = i, s
			}
		}
		return best, nil
	}
	var feasible []int
	for i, c := range raw {
		if WithinBounds(c, constraints) {
			feasible = append(feasible, i)
		}
	}
	if len(feasible) == 0 {
		return argmin(scores)
	}
	sub := make([][]float64, len(feasible))
	for i, idx := range feasible {
		sub[i] = scores[idx]
	}
	best, err := argmin(sub)
	if err != nil {
		return 0, err
	}
	return feasible[best], nil
}

// TestSelectionMatchesOracle pins Algorithm 2 as the scheduler runs it
// (ArgminWeightedSumWhere over WithinBounds) and ArgminWeightedSum to
// the answers and errors of the loop they replaced, branch by branch.
func TestSelectionMatchesOracle(t *testing.T) {
	costs := [][]float64{{9, 1}, {4, 4}, {4, 4}, {1, 9}, {6, 2}}
	cases := []struct {
		name        string
		costs       [][]float64
		weights     []float64
		constraints []float64
		want        int
		wantErr     error
	}{
		{name: "unconstrained, first of tied minima", costs: costs, weights: []float64{1, 1}, want: 1},
		{name: "one feasible", costs: costs, weights: []float64{1, 1}, constraints: []float64{2}, want: 3},
		{name: "feasible subset, tie-break inside it", costs: costs, weights: []float64{1, 1}, constraints: []float64{5, 5}, want: 1},
		{name: "second metric bound only bites", costs: costs, weights: []float64{1, 0}, constraints: []float64{100, 3}, want: 4},
		{name: "no feasible plan → whole-set winner", costs: costs, weights: []float64{3, 1}, constraints: []float64{0.5, 0.5}, want: 3},
		{name: "weights need not sum to 1", costs: costs, weights: []float64{0, 7}, want: 0},
		{name: "negative weight", costs: costs, weights: []float64{-1, 1}, wantErr: ErrWeights},
		{name: "NaN weight", costs: costs, weights: []float64{math.NaN(), 1}, wantErr: ErrWeights},
		{name: "zero weights", costs: costs, weights: []float64{0, 0}, wantErr: ErrWeights},
		{name: "weights of the wrong length", costs: costs, weights: []float64{1}, wantErr: ErrDimension},
		{name: "dimension reported before weights", costs: costs, weights: []float64{-1}, wantErr: ErrDimension},
		{name: "no plans", weights: []float64{1, 1}, wantErr: ErrNoPlans},
	}
	for _, tc := range cases {
		want, wantErr := bestInParetoOracle(tc.costs, tc.costs, tc.weights, tc.constraints)
		if !errors.Is(wantErr, tc.wantErr) || (wantErr == nil && want != tc.want) {
			t.Fatalf("%s: oracle = %d, %v; the table expects %d, %v", tc.name, want, wantErr, tc.want, tc.wantErr)
		}
		got, err := algorithm2(tc.costs, tc.weights, tc.constraints)
		if got != want || !sameError(err, wantErr) {
			t.Errorf("%s: Algorithm 2 = %d, %v; oracle %d, %v", tc.name, got, err, want, wantErr)
		}
		if len(tc.constraints) == 0 {
			got, err := argminRows(tc.costs, tc.weights)
			if got != want || !sameError(err, wantErr) {
				t.Errorf("%s: ArgminWeightedSum = %d, %v; oracle %d, %v", tc.name, got, err, want, wantErr)
			}
		}
	}

	// Feasibility judged on one matrix, scores taken from another — the
	// scheduler's raw-vs-normalized split — over random small-grid input.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5000; trial++ {
		n, m := 1+rng.Intn(12), 1+rng.Intn(3)
		raw, scores := make([][]float64, n), make([][]float64, n)
		for i := range raw {
			raw[i], scores[i] = make([]float64, m), make([]float64, m)
			for k := 0; k < m; k++ {
				raw[i][k], scores[i][k] = float64(rng.Intn(5)), float64(rng.Intn(4))/3
			}
		}
		weights := make([]float64, m)
		for k := range weights {
			weights[k] = float64(rng.Intn(4))
		}
		constraints := make([]float64, rng.Intn(m+2)) // may exceed m: extra bounds constrain nothing
		for k := range constraints {
			constraints[k] = float64(rng.Intn(5))
		}
		want, wantErr := bestInParetoOracle(raw, scores, weights, constraints)
		packed, _ := NewCostMatrix(scores)
		got, err := ArgminWeightedSumWhere(packed, weights, func(i int) bool { return WithinBounds(raw[i], constraints) })
		if got != want || !sameError(err, wantErr) {
			t.Fatalf("trial %d: ArgminWeightedSumWhere = %d, %v; oracle %d, %v\nraw %v\nscores %v\nweights %v constraints %v",
				trial, got, err, want, wantErr, raw, scores, weights, constraints)
		}
	}
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// A selection is per request on the serving path; none of the three
// entry points may allocate.
func TestSelectionDoesNotAllocate(t *testing.T) {
	costs, _ := NewCostMatrix([][]float64{{9, 1}, {4, 4}, {1, 9}, {6, 2}})
	weights := []float64{1, 2}
	for name, constraints := range map[string][]float64{
		"feasible subset":  {5, 5},
		"no feasible plan": {0, 0},
		"unconstrained":    nil,
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ArgminWeightedSumWhere(costs, weights, func(i int) bool { return WithinBounds(costs.Row(i), constraints) }); err != nil {
				t.Fatal(err)
			}
			if _, err := ArgminWeightedSum(costs, weights); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per selection, want 0", name, allocs)
		}
	}
}
