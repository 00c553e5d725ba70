package moo

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
// set whose scores are all NaN is ErrIncomparable. The dimension and
// then the weights are validated and totalled once, not per row, and
// the loop does not allocate.
func ArgminWeightedSumWhere(scores CostMatrix, weights []float64, feasible func(i int) bool) (int, error) {
	if scores.n == 0 {
		return 0, ErrNoPlans
	}
	if scores.k != len(weights) {
		return 0, fmt.Errorf("%w: %d costs vs %d weights", ErrDimension, scores.k, len(weights))
	}
	wSum, err := weightTotal(weights)
	if err != nil {
		return 0, err
	}
	for {
		best, bestScore, competed := -1, math.Inf(1), false
		for i := 0; i < scores.n; i++ {
			if feasible != nil && !feasible(i) {
				continue
			}
			competed = true
			if s := scalarize(scores.Row(i), weights, wSum); s < bestScore {
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
func ArgminWeightedSum(costs CostMatrix, weights []float64) (int, error) {
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
// Constant columns map to 0. The input is not modified; the result is
// written over dst, whose capacity is reused when large enough.
func NormalizeCosts(dst []float64, costs CostMatrix) CostMatrix {
	out := slices.Grow(dst[:0], len(costs.v))[:len(costs.v)]
	for m := 0; m < costs.k; m++ {
		lo, hi := columnRange(costs, m)
		for i := m; i < len(out); i += costs.k {
			out[i] = normalize(costs.v[i], lo, hi)
		}
	}
	return CostMatrix{n: costs.n, k: costs.k, v: out}
}

// columnRange is the smallest and largest value of objective m, NaNs
// skipped: +Inf and −Inf when there is none.
func columnRange(costs CostMatrix, m int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := m; i < len(costs.v); i += costs.k {
		v := costs.v[i]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// normalize is v rescaled from [lo, hi] to [0, 1], or 0 when the range
// is empty.
func normalize(v, lo, hi float64) float64 {
	if hi > lo {
		return (v - lo) / (hi - lo)
	}
	return 0
}
