// Package moo implements the multi-objective machinery of the paper's
// Sections 2.3 and 3: Pareto dominance over cost vectors, Pareto
// sets/fronts (eq. 4 and eq. 13), the NSGA-II evolutionary
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
	"slices"
)

// ErrDimension is returned when cost vectors of different lengths are
// compared.
var ErrDimension = errors.New("moo: mismatched objective dimensions")

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
// NaN-free objectives, the served case, take paretoFront2: same indices,
// O(n log |front|).
func ParetoFront(costs CostMatrix) ([]int, error) {
	return ParetoFrontInto(nil, costs), nil
}

// ParetoFrontInto is ParetoFront written over dst, whose capacity it
// reuses when large enough: the form a caller that pools the indices
// uses.
func ParetoFrontInto(dst []int, costs CostMatrix) []int {
	if costs.k == 2 {
		return paretoFront2(dst, costs)
	}
	return paretoFrontRows(dst, costs)
}

// paretoFrontRows is the running front over Row views, for any width,
// kept in dst's storage.
func paretoFrontRows(dst []int, costs CostMatrix) []int {
	front := dst[:0]
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
// touching the heap (3 KB of stack). Measured as the running front's
// peak over 20 DREAM rounds per lattice: the 30-plan lattices of the
// default topology reach 1–15 members and the largest midasd serves
// (128 plans) 2–29; 2,048 plans reach 32–156 and 18,432 plans 96–3,473.
// There the front often spills to append's growth, which costs only
// allocations.
const frontBuf = 128

// member is one row of paretoFront2's front: its two costs and index.
type member struct {
	c0, c1 float64
	i      int
}

// paretoFront2 is paretoFrontRows over rows of two objectives, with the
// front kept as a staircase (Kung, Luccio & Preparata 1975): members
// sorted by objective 0, so objective 1 descends, and equal objective 0
// means an identical row. A candidate's only possible dominator is then
// the last member whose objective 0 is no greater — one binary search —
// and the members it dominates are one contiguous run, evicted by one
// copy. The member that dropped the last candidate is tried before the
// search: neighbouring plans tend to share a dominator. The front lives
// on the stack up to frontBuf members; the result, in dst's storage,
// is the one allocation when dst is too small. A NaN, which no order
// holds, hands the whole matrix to paretoFrontRows.
func paretoFront2(dst []int, costs CostMatrix) []int {
	var buf [frontBuf]member
	front, v := buf[:0], costs.v
	d := -1 // the member that dropped the last row; -1 once the front changes
	for i := 0; len(v) >= 2; i++ {
		c0, c1 := v[0], v[1]
		v = v[2:]
		// NaN in either cost — or +Inf beside −Inf, which the scan handles
		// as well — makes the sum NaN.
		if s := c0 + c1; s != s {
			return paretoFrontRows(dst, costs)
		}
		if d >= 0 {
			if m := &front[d]; m.c0 <= c0 && m.c1 <= c1 && (m.c0 < c0 || m.c1 < c1) {
				continue
			}
		}
		// p is the first member whose objective 0 exceeds c0; a row past
		// the last member's objective 0 skips the search.
		lo, p := 0, len(front)
		if p > 0 && front[p-1].c0 <= c0 {
			lo = p
		}
		for lo < p {
			h := int(uint(lo+p) >> 1)
			if front[h].c0 <= c0 {
				lo = h + 1
			} else {
				p = h
			}
		}
		if p > 0 {
			if m := &front[p-1]; m.c1 <= c1 {
				if m.c0 != c0 || m.c1 != c1 {
					d = p - 1
					continue // dominated by m
				}
				// A copy of a member: every member past it has a lower
				// objective 1, so it joins its twins and evicts none.
				front, d = slices.Insert(front, p, member{c0, c1, i}), -1
				continue
			}
		}
		// The row dominates the members left of p that share its objective
		// 0 (copies of one row, with a higher objective 1) and those from p
		// on whose objective 1 is no lower: the run [q, r).
		q, r := p, p
		for q > 0 && front[q-1].c0 == c0 {
			q--
		}
		for r < len(front) && front[r].c1 >= c1 {
			r++
		}
		d = -1
		if r == q {
			front = slices.Insert(front, q, member{c0, c1, i})
			continue
		}
		front[q] = member{c0, c1, i}
		if r > q+1 {
			front = front[:q+1+copy(front[q+1:], front[r:])]
		}
	}
	out := slices.Grow(dst[:0], len(front))[:len(front)]
	for j, m := range front {
		out[j] = m.i
	}
	slices.Sort(out)
	return out
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
