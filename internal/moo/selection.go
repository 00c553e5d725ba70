package moo

import (
	"errors"
	"fmt"
	"math"
)

// This file implements alternative strategies for choosing one plan out
// of a Pareto set — the paper's concluding future-work item ("we will
// also define new strategies to choose QEPs in a Pareto Set"), built
// alongside Algorithm 2's weighted sum.

// ErrObjectiveCount is returned when a strategy does not support the
// cost vectors' dimensionality.
var ErrObjectiveCount = errors.New("moo: unsupported objective count")

// KneePoint returns the index of the knee of a two-objective Pareto
// set: the point farthest (on normalized axes) from the line joining
// the two extreme points. The knee is the "best bang for the buck"
// plan — moving away from it trades a lot of one objective for little
// of the other — and needs no user weights at all.
func KneePoint(costs CostMatrix) (int, error) {
	if costs.n == 0 {
		return 0, ErrNoPlans
	}
	if costs.k != 2 {
		return 0, fmt.Errorf("%w: knee selection needs 2 objectives, got %d", ErrObjectiveCount, costs.k)
	}
	if costs.n == 1 {
		return 0, nil
	}
	norm := NormalizeCosts(nil, costs)
	// Extreme points on the normalized axes.
	bestF1, bestF2 := 0, 0
	for i := 0; i < norm.Len(); i++ {
		c, b1, b2 := norm.Row(i), norm.Row(bestF1), norm.Row(bestF2)
		if c[0] < b1[0] || (c[0] == b1[0] && c[1] < b1[1]) {
			bestF1 = i
		}
		if c[1] < b2[1] || (c[1] == b2[1] && c[0] < b2[0]) {
			bestF2 = i
		}
	}
	a, b := norm.Row(bestF1), norm.Row(bestF2)
	dx, dy := b[0]-a[0], b[1]-a[1]
	length := math.Hypot(dx, dy)
	if length == 0 {
		// Degenerate set (all identical after normalization): any
		// member is a knee.
		return bestF1, nil
	}
	best, bestDist := bestF1, -1.0
	for i := 0; i < norm.Len(); i++ {
		c := norm.Row(i)
		// Perpendicular distance to the extreme-point line; points on
		// the convex side (toward the ideal point) score positive.
		dist := math.Abs(dx*(a[1]-c[1])-dy*(a[0]-c[0])) / length
		if dist > bestDist {
			best, bestDist = i, dist
		}
	}
	return best, nil
}

// Lexicographic orders objectives by priority: the plan minimizing the
// first objective wins; ties within `tolerance` (relative) fall through
// to the next objective, and so on. order lists objective indices by
// decreasing priority and must be a permutation prefix (non-repeating,
// in range). When a priority's objective is NaN on every remaining
// candidate, the result is ErrIncomparable.
func Lexicographic(costs CostMatrix, order []int, tolerance float64) (int, error) {
	if costs.n == 0 {
		return 0, ErrNoPlans
	}
	if err := CheckLexOrder(order, costs.k); err != nil {
		return 0, err
	}
	if tolerance < 0 {
		tolerance = 0
	}
	candidates := make([]int, costs.n)
	for i := range candidates {
		candidates[i] = i
	}
	for _, m := range order {
		bestVal := math.Inf(1)
		for _, i := range candidates {
			if v := costs.Row(i)[m]; v < bestVal {
				bestVal = v
			}
		}
		cut := bestVal * (1 + tolerance)
		if bestVal < 0 {
			cut = bestVal * (1 - tolerance)
		}
		next := candidates[:0]
		for _, i := range candidates {
			if costs.Row(i)[m] <= cut {
				next = append(next, i)
			}
		}
		if len(next) == 0 {
			return 0, fmt.Errorf("%w: objective %d is NaN on every candidate", ErrIncomparable, m)
		}
		candidates = next
		if len(candidates) == 1 {
			break
		}
	}
	return candidates[0], nil
}

// CheckLexOrder validates a Lexicographic priority order over k
// objectives: non-empty, every index in range, none repeated.
func CheckLexOrder(order []int, k int) error {
	if len(order) == 0 {
		return fmt.Errorf("%w: empty priority order", ErrDimension)
	}
	for i, m := range order {
		if m < 0 || m >= k {
			return fmt.Errorf("%w: objective %d of %d", ErrDimension, m, k)
		}
		for _, prev := range order[:i] {
			if prev == m {
				return fmt.Errorf("%w: objective %d repeated in priority order", ErrDimension, m)
			}
		}
	}
	return nil
}
