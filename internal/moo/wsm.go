package moo

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoPlans is returned when a selection runs over an empty plan set.
var ErrNoPlans = errors.New("moo: no plans to select from")

// ErrWeights is returned for invalid weighted-sum weights.
var ErrWeights = errors.New("moo: invalid weights")

// ErrIncomparable is returned when a selection has candidates but none
// with a cost it can compare: every competing score, or every value of
// the deciding objective, is NaN.
var ErrIncomparable = errors.New("moo: no candidate has a comparable cost")

// weightTotal validates weighted-sum weights — non-negative, not NaN,
// not all zero — and returns their sum, the normalizer.
func weightTotal(weights []float64) (float64, error) {
	var wSum float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return 0, fmt.Errorf("%w: negative or NaN weight %v", ErrWeights, w)
		}
		wSum += w
	}
	if wSum == 0 {
		return 0, fmt.Errorf("%w: weights sum to zero", ErrWeights)
	}
	return wSum, nil
}

// CheckWeights validates weights for k objectives the way WeightedSum
// does: one weight per objective, each non-negative and not NaN, not
// all zero.
func CheckWeights(weights []float64, k int) error {
	if len(weights) != k {
		return fmt.Errorf("%w: %d costs vs %d weights", ErrDimension, k, len(weights))
	}
	_, err := weightTotal(weights)
	return err
}

// WeightedSum scalarizes a cost vector with the Weighted Sum Model
// (Helff & Orazio 2016): Σ wₙ·cₙ. Weights must be non-negative and not
// all zero; they are normalized to sum to 1 so scores are comparable
// across weight settings.
func WeightedSum(costs, weights []float64) (float64, error) {
	if len(costs) != len(weights) {
		return 0, fmt.Errorf("%w: %d costs vs %d weights", ErrDimension, len(costs), len(weights))
	}
	wSum, err := weightTotal(weights)
	if err != nil {
		return 0, err
	}
	return scalarize(costs, weights, wSum), nil
}

// scalarize is Σ (wₙ/wSum)·cₙ for weights weightTotal accepted and
// len(costs) == len(weights).
func scalarize(costs, weights []float64, wSum float64) float64 {
	var s float64
	for i, c := range costs {
		s += (weights[i] / wSum) * c
	}
	return s
}

// ArgminWeightedSumWhere is the one weighted-sum selection loop: the
// index of the first row of scores with the smallest WeightedSum among
// the rows feasible(i) admits. A nil feasible admits every row; when it
// admits none the whole set competes (Algorithm 2 line 6). A competing
// set whose scores are all NaN is ErrIncomparable. The weights are
// validated and totalled once, not per row, and the loop does not
// allocate.
func ArgminWeightedSumWhere(scores [][]float64, weights []float64, feasible func(i int) bool) (int, error) {
	if len(scores) == 0 {
		return 0, ErrNoPlans
	}
	wSum, wErr := weightTotal(weights)
	for {
		best, bestScore, competed := -1, math.Inf(1), false
		for i, c := range scores {
			if feasible != nil && !feasible(i) {
				continue
			}
			competed = true
			// Per competing row, dimension before weights: the order
			// WeightedSum reports them in.
			if len(c) != len(weights) {
				return 0, fmt.Errorf("%w: %d costs vs %d weights", ErrDimension, len(c), len(weights))
			}
			if wErr != nil {
				return 0, wErr
			}
			if s := scalarize(c, weights, wSum); s < bestScore {
				best, bestScore = i, s
			}
		}
		if competed {
			if best < 0 {
				return 0, fmt.Errorf("%w: every competing score is NaN", ErrIncomparable)
			}
			return best, nil
		}
		feasible = nil
	}
}

// ArgminWeightedSum returns the index of the plan with the smallest
// weighted-sum score: the WSM baseline optimizer (paper Figure 3, right
// path).
func ArgminWeightedSum(costs [][]float64, weights []float64) (int, error) {
	return ArgminWeightedSumWhere(costs, weights, nil)
}

// WithinBounds reports whether cost vector c meets the per-metric upper
// bounds: cₙ ≤ boundsₙ for every bounded metric n. Bounds beyond c's
// dimension constrain nothing.
func WithinBounds(c, bounds []float64) bool {
	for n, b := range bounds {
		if n < len(c) && c[n] > b {
			return false
		}
	}
	return true
}

// NormalizeCosts rescales each objective column to [0,1] across the
// plan set (min-max). WSM comparisons across metrics with different
// units (seconds vs dollars) are meaningless without this step.
// Constant columns map to 0. The input is not modified.
func NormalizeCosts(costs [][]float64) [][]float64 {
	if len(costs) == 0 {
		return nil
	}
	nObj := len(costs[0])
	lo := make([]float64, nObj)
	hi := make([]float64, nObj)
	for m := 0; m < nObj; m++ {
		lo[m], hi[m] = math.Inf(1), math.Inf(-1)
	}
	for _, c := range costs {
		for m, v := range c {
			if v < lo[m] {
				lo[m] = v
			}
			if v > hi[m] {
				hi[m] = v
			}
		}
	}
	out := make([][]float64, len(costs))
	flat := make([]float64, len(costs)*nObj) // the rows are capped views into it
	for i, c := range costs {
		row := flat[i*nObj : (i+1)*nObj : (i+1)*nObj]
		for m, v := range c {
			if hi[m] > lo[m] {
				row[m] = (v - lo[m]) / (hi[m] - lo[m])
			}
		}
		out[i] = row
	}
	return out
}
