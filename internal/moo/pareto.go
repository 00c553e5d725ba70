// Package moo implements the multi-objective machinery of the paper's
// Sections 2.3 and 3: Pareto dominance over cost vectors (eqs. 1–3),
// Pareto sets/fronts (eq. 4 and eq. 13), the NSGA-II evolutionary
// optimizer the paper applies in the Multi-Objective Optimizer module,
// the grid-based NSGA-G variant the authors proposed in companion work,
// the Weighted Sum Model baseline, and Algorithm 2 (BestInPareto).
//
// All objectives are minimized, matching eq. 13.
package moo

import (
	"errors"
	"fmt"
)

// ErrDimension is returned when cost vectors of different lengths are
// compared.
var ErrDimension = errors.New("moo: mismatched objective dimensions")

// Dominates reports whether cost vector a dominates b: aₙ ≤ bₙ for all
// objectives (paper eq. 1). Note that a vector dominates itself under
// this (weak) definition; use StrictlyDominates for eq. 3.
func Dominates(a, b []float64) (bool, error) {
	if len(a) != len(b) {
		return false, fmt.Errorf("%w: %d vs %d", ErrDimension, len(a), len(b))
	}
	for i := range a {
		if a[i] > b[i] {
			return false, nil
		}
	}
	return true, nil
}

// StrictlyDominates reports whether aₙ < bₙ for all objectives (paper
// eq. 3, StriDom).
func StrictlyDominates(a, b []float64) (bool, error) {
	if len(a) != len(b) {
		return false, fmt.Errorf("%w: %d vs %d", ErrDimension, len(a), len(b))
	}
	for i := range a {
		if a[i] >= b[i] {
			return false, nil
		}
	}
	return true, nil
}

// ParetoDominates is the standard Pareto relation used by NSGA-II:
// a ≤ b in every objective and a < b in at least one.
func ParetoDominates(a, b []float64) (bool, error) {
	if len(a) != len(b) {
		return false, fmt.Errorf("%w: %d vs %d", ErrDimension, len(a), len(b))
	}
	return paretoDominates(a, b), nil
}

// paretoDominates is ParetoDominates for vectors already known to be
// of equal length.
func paretoDominates(a, b []float64) bool {
	strictlyBetter := false
	for i := range a {
		switch {
		case a[i] > b[i]:
			return false
		case a[i] < b[i]:
			strictlyBetter = true
		}
	}
	return strictlyBetter
}

// ParetoFront returns the indices, ascending, of the non-dominated cost
// vectors in costs — the Pareto set of eq. 13's trade-off space. Ties
// (identical vectors) are all kept. Rows of differing length are
// ErrDimension.
//
// It is one pass that keeps a running front: a candidate dominated by a
// front member is dropped, otherwise it evicts the members it dominates
// and joins. That is O(n·|front|) — quadratic only when the front itself
// is Θ(n) (an antichain). NaN components compare as ties in
// ParetoDominates, which makes dominance non-transitive; for NaN-bearing
// input the result is deterministic but otherwise unspecified.
func ParetoFront(costs [][]float64) ([]int, error) {
	for _, c := range costs {
		if len(c) != len(costs[0]) {
			return nil, fmt.Errorf("%w: %d vs %d", ErrDimension, len(costs[0]), len(c))
		}
	}
	var front []int
candidates:
	for i, ci := range costs {
		for _, j := range front {
			if paretoDominates(costs[j], ci) {
				continue candidates
			}
		}
		kept := 0
		for _, j := range front {
			if !paretoDominates(ci, costs[j]) {
				front[kept] = j
				kept++
			}
		}
		front = append(front[:kept], i)
	}
	return front, nil
}

// NonDominatedSort partitions costs into fronts F₁, F₂, … where F₁ is
// the Pareto front, F₂ is the front after removing F₁, and so on — the
// fast non-dominated sort at the heart of NSGA-II (Deb et al. 2002).
func NonDominatedSort(costs [][]float64) ([][]int, error) {
	n := len(costs)
	dominatedBy := make([][]int, n) // dominatedBy[i]: solutions i dominates
	domCount := make([]int, n)      // number of solutions dominating i
	var first []int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dom, err := ParetoDominates(costs[i], costs[j])
			if err != nil {
				return nil, err
			}
			if dom {
				dominatedBy[i] = append(dominatedBy[i], j)
			} else {
				dom, err = ParetoDominates(costs[j], costs[i])
				if err != nil {
					return nil, err
				}
				if dom {
					domCount[i]++
				}
			}
		}
		if domCount[i] == 0 {
			first = append(first, i)
		}
	}
	var fronts [][]int
	cur := first
	for len(cur) > 0 {
		fronts = append(fronts, cur)
		var next []int
		for _, i := range cur {
			for _, j := range dominatedBy[i] {
				domCount[j]--
				if domCount[j] == 0 {
					next = append(next, j)
				}
			}
		}
		cur = next
	}
	return fronts, nil
}
