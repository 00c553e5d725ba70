// Package moo implements the multi-objective machinery of the paper's
// Sections 2.3 and 3: Pareto dominance over cost vectors (eq. 1),
// Pareto sets/fronts (eq. 4 and eq. 13), the NSGA-II evolutionary
// optimizer the paper applies in the Multi-Objective Optimizer module,
// the Weighted Sum Model baseline, and the weighted-sum selection under
// per-metric bounds that Algorithm 2 makes (ArgminWeightedSumWhere with
// WithinBounds).
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
// this (weak) definition.
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

// CostMatrix is n cost vectors of K objectives each, stored back to back
// in one array that holds no pointers: what a sweep fills plan by plan
// and ParetoFront reduces, with nothing per row for the collector to
// scan. The zero value is the empty matrix.
type CostMatrix struct {
	n, k int       // rows, and objectives per row (> 0 unless n is 0)
	v    []float64 // n·k values, row-major
}

// NewCostMatrix packs rows, which must all have the length of the
// first and at least one objective, into a CostMatrix — the way in for
// small sets held as [][]float64. Anything else is ErrDimension.
func NewCostMatrix(rows [][]float64) (CostMatrix, error) {
	if len(rows) == 0 {
		return CostMatrix{}, nil
	}
	k, err := rowWidth(rows)
	if err == nil && k == 0 {
		err = fmt.Errorf("%w: rows of 0 objectives", ErrDimension)
	}
	if err != nil {
		return CostMatrix{}, err
	}
	v := make([]float64, 0, len(rows)*k)
	for _, r := range rows {
		v = append(v, r...)
	}
	return CostMatrix{n: len(rows), k: k, v: v}, nil
}

// rowWidth returns the objective count every row of a non-empty costs
// shares, or ErrDimension when the rows are ragged.
func rowWidth(costs [][]float64) (int, error) {
	k := len(costs[0])
	for _, r := range costs {
		if len(r) != k {
			return 0, fmt.Errorf("%w: rows of %d and %d objectives", ErrDimension, k, len(r))
		}
	}
	return k, nil
}

// FlatCostMatrix wraps v, rows of k objectives back to back, without
// copying it: the caller must not write to v afterwards. A non-empty v
// that is not whole rows of k ≥ 1 is ErrDimension.
func FlatCostMatrix(v []float64, k int) (CostMatrix, error) {
	if len(v) == 0 {
		return CostMatrix{}, nil
	}
	if k < 1 || len(v)%k != 0 {
		return CostMatrix{}, fmt.Errorf("%w: %d values in rows of %d", ErrDimension, len(v), k)
	}
	return CostMatrix{n: len(v) / k, k: k, v: v}, nil
}

// Len is the number of rows.
func (m CostMatrix) Len() int { return m.n }

// Row returns row i as a view into the matrix, capped so that an append
// to it cannot reach row i+1. Read-only: the matrix is shared.
func (m CostMatrix) Row(i int) []float64 {
	return m.v[i*m.k : (i+1)*m.k : (i+1)*m.k]
}

// Append returns m followed by the rows of o, which must have m's width
// unless one of the two is empty. It may reuse m's spare capacity.
func (m CostMatrix) Append(o CostMatrix) (CostMatrix, error) {
	if m.k != o.k && m.n > 0 && o.n > 0 {
		return CostMatrix{}, fmt.Errorf("%w: %d vs %d", ErrDimension, m.k, o.k)
	}
	return CostMatrix{n: m.n + o.n, k: max(m.k, o.k), v: append(m.v, o.v...)}, nil
}

// ParetoFront returns the indices, ascending, of the non-dominated rows
// of costs — the Pareto set of eq. 13's trade-off space. Ties (identical
// rows) are all kept. The error is always nil — a CostMatrix cannot be
// ragged — and stays for the callers that check it.
//
// It is one pass that keeps a running front: a candidate dominated by a
// front member is dropped, otherwise it evicts the members it dominates
// and joins. That is O(n·|front|) — quadratic only when the front itself
// is Θ(n) (an antichain). NaN components compare as ties in
// ParetoDominates, which makes dominance non-transitive; for NaN-bearing
// input the result is deterministic but otherwise unspecified. Two
// objectives, the served count, take paretoFront2: same indices, always.
func ParetoFront(costs CostMatrix) ([]int, error) {
	if costs.k == 2 {
		return paretoFront2(costs.v), nil
	}
	return paretoFrontRows(costs), nil
}

// paretoFrontRows is the running front over Row views, for any width.
func paretoFrontRows(costs CostMatrix) []int {
	var front []int
candidates:
	for i := 0; i < costs.n; i++ {
		ci := costs.Row(i)
		for _, j := range front {
			if paretoDominates(costs.Row(j), ci) {
				continue candidates
			}
		}
		kept := 0
		for _, j := range front {
			if !paretoDominates(ci, costs.Row(j)) {
				front[kept] = j
				kept++
			}
		}
		front = append(front[:kept], i)
	}
	return front
}

// frontBuf is how many front members paretoFront2 holds without
// touching the heap (3 KB of stack). The lattices midasd serves produce
// fronts of 1–8 and a 2,048-plan sweep passes through fronts of 64–128
// on its way to ≈ 40; a longer one spills to append's growth and costs
// only allocations.
const frontBuf = 128

// dominates2 is paretoDominates for two objectives: a is nowhere worse
// and somewhere better, with a NaN comparing as a tie.
func dominates2(a0, a1, b0, b1 float64) bool {
	return !(a0 > b0) && !(a1 > b1) && (a0 < b0 || a1 < b1)
}

// paretoFront2 is paretoFrontRows over v's rows of two objectives. The
// front's costs are copied next to its indices, so the scan every
// candidate pays — is it dominated by a member? — walks one contiguous
// array, two compares a member, and both live on the stack up to
// frontBuf members; the result is the one allocation.
func paretoFront2(v []float64) []int {
	var idxBuf [frontBuf]int
	var costBuf [2 * frontBuf]float64
	front, fc := idxBuf[:0], costBuf[:0]
candidates:
	for i := 0; 2*i < len(v); i++ {
		c0, c1 := v[2*i], v[2*i+1]
		for j := 0; j+1 < len(fc); j += 2 {
			if dominates2(fc[j], fc[j+1], c0, c1) {
				continue candidates
			}
		}
		kept := 0
		for j := range front {
			if !dominates2(c0, c1, fc[2*j], fc[2*j+1]) {
				front[kept], fc[2*kept], fc[2*kept+1] = front[j], fc[2*j], fc[2*j+1]
				kept++
			}
		}
		front, fc = append(front[:kept], i), append(fc[:2*kept], c0, c1)
	}
	return append([]int(nil), front...)
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
