package moo

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

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
	i, err := KneePoint(costs)
	if err != nil {
		t.Fatal(err)
	}
	if i != 2 {
		t.Errorf("knee = %d (%v), want 2", i, costs[i])
	}
}

func TestKneePointEdgeCases(t *testing.T) {
	if _, err := KneePoint(nil); !errors.Is(err, ErrNoPlans) {
		t.Errorf("empty: got %v, want ErrNoPlans", err)
	}
	if _, err := KneePoint([][]float64{{1, 2, 3}}); !errors.Is(err, ErrObjectiveCount) {
		t.Errorf("3 objectives: got %v, want ErrObjectiveCount", err)
	}
	i, err := KneePoint([][]float64{{5, 5}})
	if err != nil || i != 0 {
		t.Errorf("singleton: got %d, %v", i, err)
	}
	// Identical points: degenerate but must not error.
	if _, err := KneePoint([][]float64{{1, 1}, {1, 1}}); err != nil {
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
	i, err := Lexicographic(costs, []int{0, 1}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if i != 1 {
		t.Errorf("selected %d, want 1", i)
	}
	// Zero tolerance → strict: plan 0.
	i, err = Lexicographic(costs, []int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if i != 0 {
		t.Errorf("strict selected %d, want 0", i)
	}
	// Money first → plan 2.
	i, err = Lexicographic(costs, []int{1, 0}, 0.01)
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
	i, err := Lexicographic(costs, []int{0, 1}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if i != 1 {
		t.Errorf("negative-cost tolerance selected %d, want 1", i)
	}
	if _, err := Lexicographic(nil, []int{0}, 0); !errors.Is(err, ErrNoPlans) {
		t.Errorf("got %v, want ErrNoPlans", err)
	}
	if _, err := Lexicographic(costs, nil, 0); !errors.Is(err, ErrDimension) {
		t.Errorf("empty order: got %v, want ErrDimension", err)
	}
	if _, err := Lexicographic(costs, []int{0, 0}, 0); !errors.Is(err, ErrDimension) {
		t.Errorf("repeated objective: got %v, want ErrDimension", err)
	}
	if _, err := Lexicographic(costs, []int{7}, 0); !errors.Is(err, ErrDimension) {
		t.Errorf("out-of-range objective: got %v, want ErrDimension", err)
	}
	// Negative tolerance normalizes to 0 rather than erroring.
	if _, err := Lexicographic(costs, []int{0}, -1); err != nil {
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
		k, err := KneePoint(costs)
		if err != nil || k < 0 || k >= n {
			return false
		}
		l, err := Lexicographic(costs, []int{0, 1}, 0.05)
		if err != nil || l < 0 || l >= n {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
