package moo

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// kneeRows and lexRows are KneePoint and Lexicographic over rows held as
// [][]float64; ragged rows are NewCostMatrix's ErrDimension.
func kneeRows(rows [][]float64) (int, error) {
	m, err := NewCostMatrix(rows)
	if err != nil {
		return 0, err
	}
	return KneePoint(m)
}

func lexRows(rows [][]float64, order []int, tolerance float64) (int, error) {
	m, err := NewCostMatrix(rows)
	if err != nil {
		return 0, err
	}
	return Lexicographic(m, order, tolerance)
}

func TestKneePoint(t *testing.T) {
	// A convex front with an obvious knee at (2, 2): the extremes are
	// (0, 10) and (10, 0), and (2,2) bulges toward the origin.
	costs := [][]float64{
		{0, 10},
		{1, 4},
		{2, 2},
		{4, 1},
		{10, 0},
	}
	i, err := kneeRows(costs)
	if err != nil {
		t.Fatal(err)
	}
	if i != 2 {
		t.Errorf("knee = %d (%v), want 2", i, costs[i])
	}
}

func TestKneePointEdgeCases(t *testing.T) {
	if _, err := kneeRows(nil); !errors.Is(err, ErrNoPlans) {
		t.Errorf("empty: got %v, want ErrNoPlans", err)
	}
	if _, err := kneeRows([][]float64{{1, 2, 3}}); !errors.Is(err, ErrObjectiveCount) {
		t.Errorf("3 objectives: got %v, want ErrObjectiveCount", err)
	}
	i, err := kneeRows([][]float64{{5, 5}})
	if err != nil || i != 0 {
		t.Errorf("singleton: got %d, %v", i, err)
	}
	// Identical points: degenerate but must not error.
	if _, err := kneeRows([][]float64{{1, 1}, {1, 1}}); err != nil {
		t.Errorf("identical points: %v", err)
	}
}

func TestLexicographic(t *testing.T) {
	costs := [][]float64{
		{10, 1},
		{10.05, 0.5}, // within 1% of the best time, cheaper
		{20, 0.1},
	}
	// Time first with 1% tolerance → plan 1 wins on money tie-break.
	i, err := lexRows(costs, []int{0, 1}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if i != 1 {
		t.Errorf("selected %d, want 1", i)
	}
	// Zero tolerance → strict: plan 0.
	i, err = lexRows(costs, []int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if i != 0 {
		t.Errorf("strict selected %d, want 0", i)
	}
	// Money first → plan 2.
	i, err = lexRows(costs, []int{1, 0}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if i != 2 {
		t.Errorf("money-first selected %d, want 2", i)
	}
}

func TestLexicographicNegativeValuesAndErrors(t *testing.T) {
	// Negative costs: tolerance band must widen downward.
	costs := [][]float64{{-10, 5}, {-9.95, 1}}
	i, err := lexRows(costs, []int{0, 1}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if i != 1 {
		t.Errorf("negative-cost tolerance selected %d, want 1", i)
	}
	if _, err := lexRows(nil, []int{0}, 0); !errors.Is(err, ErrNoPlans) {
		t.Errorf("got %v, want ErrNoPlans", err)
	}
	if _, err := lexRows(costs, nil, 0); !errors.Is(err, ErrDimension) {
		t.Errorf("empty order: got %v, want ErrDimension", err)
	}
	if _, err := lexRows(costs, []int{0, 0}, 0); !errors.Is(err, ErrDimension) {
		t.Errorf("repeated objective: got %v, want ErrDimension", err)
	}
	if _, err := lexRows(costs, []int{7}, 0); !errors.Is(err, ErrDimension) {
		t.Errorf("out-of-range objective: got %v, want ErrDimension", err)
	}
	// Negative tolerance normalizes to 0 rather than erroring.
	if _, err := lexRows(costs, []int{0}, -1); err != nil {
		t.Errorf("negative tolerance: %v", err)
	}
}

// Property: every strategy returns an index in range, and the knee is
// never a dominated point of the set.
func TestPropertySelectionsInRangeAndSane(t *testing.T) {
	f := func(raw []float64) bool {
		n := len(raw) / 2
		if n == 0 || n > 25 {
			return true
		}
		costs := make([][]float64, n)
		for i := 0; i < n; i++ {
			a, b := math.Abs(raw[2*i]), math.Abs(raw[2*i+1])
			if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) || a > 1e12 || b > 1e12 {
				return true
			}
			costs[i] = []float64{a, b}
		}
		k, err := kneeRows(costs)
		if err != nil || k < 0 || k >= n {
			return false
		}
		l, err := lexRows(costs, []int{0, 1}, 0.05)
		if err != nil || l < 0 || l >= n {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSelectionRejectsNaNAndRaggedCosts: every Pareto-set selection
// answers NaN or ragged costs with an error, never a panic or an index
// outside the set.
func TestSelectionRejectsNaNAndRaggedCosts(t *testing.T) {
	nan := math.NaN()
	lex := func(order ...int) func([][]float64) (int, error) {
		return func(c [][]float64) (int, error) { return lexRows(c, order, 0.05) }
	}
	weighted := func(c [][]float64) (int, error) { return argminRows(c, []float64{1, 1}) }
	cases := []struct {
		name    string
		sel     func([][]float64) (int, error)
		costs   [][]float64
		want    int
		wantErr error
	}{
		{"lex: first priority NaN everywhere", lex(0, 1), [][]float64{{nan, 1}, {nan, 2}}, 0, ErrIncomparable},
		{"lex: tie falls through to an all-NaN objective", lex(0, 1), [][]float64{{1, nan}, {1, nan}}, 0, ErrIncomparable},
		{"lex: a NaN row drops out", lex(0, 1), [][]float64{{nan, 1}, {2, 2}}, 1, nil},
		{"lex: shorter second row", lex(1, 0), [][]float64{{1, 2}, {3}}, 0, ErrDimension},
		{"lex: longer second row", lex(0), [][]float64{{1}, {3, 4}}, 0, ErrDimension},
		{"knee: shorter second row", kneeRows, [][]float64{{1, 2}, {3}}, 0, ErrDimension},
		{"knee: longer second row", kneeRows, [][]float64{{1, 2}, {3, 4, 5}}, 0, ErrDimension},
		{"weighted: every score NaN", weighted, [][]float64{{nan, 1}, {1, nan}}, 0, ErrIncomparable},
		{"weighted: a NaN row loses", weighted, [][]float64{{nan, 0}, {1, 1}}, 1, nil},
	}
	for _, tc := range cases {
		got, err := tc.sel(tc.costs)
		if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && got != tc.want) {
			t.Errorf("%s: got %d, %v; want %d, %v", tc.name, got, err, tc.want, tc.wantErr)
		}
	}
	// Feasible rows compete alone even when all of them are NaN.
	costs, _ := NewCostMatrix([][]float64{{nan, 1}, {1, 1}})
	if _, err := ArgminWeightedSumWhere(costs, []float64{1, 1}, func(i int) bool { return i == 0 }); !errors.Is(err, ErrIncomparable) {
		t.Errorf("all-NaN feasible set: got %v, want ErrIncomparable", err)
	}
}
