package federation

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/tpch"
)

// A PlanLattice is the validated descriptor of one query's QEP space —
// 2 join placements × the feasible cluster sizes at each site — in one
// fixed order. Plans() is the whole walk, materialized once and shared
// (EnumeratePlans hands out the same slice); At(i) is one point of it,
// computed without touching the rest.

// ErrBadNodeChoices wraps every node-choice validation failure, so
// callers can distinguish a malformed menu from enumeration errors.
var ErrBadNodeChoices = errors.New("federation: bad node choices")

// ValidateNodeChoices rejects degenerate cluster-size menus up front:
// empty menus, non-positive sizes, and duplicate entries all produce a
// descriptive error instead of a silently empty or double-counted plan
// lattice. Choices above a site's MaxNodes stay legal — capacity is a
// per-site property, and the lattice simply skips them for that site.
func ValidateNodeChoices(nodeChoices []int) error {
	if len(nodeChoices) == 0 {
		return fmt.Errorf("%w: empty menu", ErrBadNodeChoices)
	}
	seen := make(map[int]struct{}, len(nodeChoices))
	for i, n := range nodeChoices {
		if n < 1 {
			return fmt.Errorf("%w: non-positive entry %d at index %d", ErrBadNodeChoices, n, i)
		}
		if _, dup := seen[n]; dup {
			return fmt.Errorf("%w: duplicate entry %d at index %d", ErrBadNodeChoices, n, i)
		}
		seen[n] = struct{}{}
	}
	return nil
}

// NodeRange returns the dense cluster-size menu {1, 2, ..., n} — the
// convenient way to drive a site to its full capacity and reach the
// paper's Example 3.1 plan counts (NodeRange(96) on WideTopology gives
// 2×96×96 = 18,432 QEPs per query).
func NodeRange(n int) []int {
	if n < 1 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// PlanLattice is one query's space of equivalent QEPs: the cross
// product of join placement (left or right site) with the feasible
// cluster sizes at each site. It is immutable after construction;
// Size and At are O(1), so the lattice can be consumed positionally
// from many goroutines without materializing a slice.
type PlanLattice struct {
	query tpch.QueryID
	// left and right hold the in-capacity cluster sizes per site, in
	// menu order — the axes of the lattice.
	left, right []int

	// plans materializes the full walk on first use of Plans().
	plansOnce sync.Once
	plans     []Plan
}

// PlanLattice validates nodeChoices and builds the QEP lattice for q.
// Beyond ValidateNodeChoices failures, it errors when a site ends up
// with no feasible cluster size at all (every menu entry above
// MaxNodes), which would otherwise enumerate zero plans.
func (f *Federation) PlanLattice(q tpch.QueryID, nodeChoices []int) (*PlanLattice, error) {
	if err := ValidateNodeChoices(nodeChoices); err != nil {
		return nil, fmt.Errorf("%w (query %v)", err, q)
	}
	leftTable, rightTable := q.Tables()
	if leftTable == "" {
		return nil, fmt.Errorf("federation: query %v has no table metadata", q)
	}
	left, err := f.SiteOf(leftTable)
	if err != nil {
		return nil, err
	}
	right, err := f.SiteOf(rightTable)
	if err != nil {
		return nil, err
	}
	feasible := func(site *Site) []int {
		out := make([]int, 0, len(nodeChoices))
		for _, n := range nodeChoices {
			if n <= site.MaxNodes {
				out = append(out, n)
			}
		}
		return out
	}
	lc, rc := feasible(left), feasible(right)
	if len(lc) == 0 {
		return nil, fmt.Errorf("%w: no entry within site %q capacity %d (query %v)",
			ErrBadNodeChoices, left.Name, left.MaxNodes, q)
	}
	if len(rc) == 0 {
		return nil, fmt.Errorf("%w: no entry within site %q capacity %d (query %v)",
			ErrBadNodeChoices, right.Name, right.MaxNodes, q)
	}
	return &PlanLattice{query: q, left: lc, right: rc}, nil
}

// Size is the number of QEPs in the lattice: 2 join placements × the
// feasible sizes per site.
func (l *PlanLattice) Size() int { return 2 * len(l.left) * len(l.right) }

// Dims reports the lattice axes: join placements (always 2) and the
// number of feasible cluster sizes at the left and right site. Size()
// == sides×left×right.
func (l *PlanLattice) Dims() (sides, left, right int) {
	return 2, len(l.left), len(l.right)
}

// Axes returns the lattice's axes — the feasible cluster sizes at the
// left and right site, in menu order — as shared slices the caller must
// treat as read-only. Plan Index(side, li, ri) has NodesLeft left[li]
// and NodesRight right[ri], so a caller can walk the lattice by its
// axes without materializing a Plan per point.
func (l *PlanLattice) Axes() (left, right []int) { return l.left, l.right }

// Index maps a lattice point to its flat position in iteration order
// (side-major, then left axis, then right axis — the order At and Plans
// share). side 0 is join-at-left, matching the historic EnumeratePlans
// order.
func (l *PlanLattice) Index(side, li, ri int) int {
	return side*len(l.left)*len(l.right) + li*len(l.right) + ri
}

// At returns the i-th plan of the deterministic iteration order.
// It panics if i is out of [0, Size()).
func (l *PlanLattice) At(i int) Plan {
	block := len(l.left) * len(l.right)
	if i < 0 || i >= 2*block {
		panic(fmt.Sprintf("federation: plan index %d out of range [0, %d)", i, 2*block))
	}
	side, rem := i/block, i%block
	return Plan{
		Query:      l.query,
		JoinAtLeft: side == 0,
		NodesLeft:  l.left[rem/len(l.right)],
		NodesRight: l.right[rem%len(l.right)],
	}
}

// Plans materializes the full lattice walk once and returns the shared
// slice. Callers must treat it as read-only; it is the batch form
// EnumeratePlans hands out.
func (l *PlanLattice) Plans() []Plan {
	l.plansOnce.Do(func() {
		plans := make([]Plan, l.Size())
		for i := range plans {
			plans[i] = l.At(i)
		}
		l.plans = plans
	})
	return l.plans
}
