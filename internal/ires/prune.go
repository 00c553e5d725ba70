package ires

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/moo"
	"repro/internal/regression"
	"repro/internal/tpch"
)

// A sweep scores every plan of one query's lattice, in lattice order,
// against one history snapshot: what midasd serves, and the paper's
// Example 3.1 regime (≈18,200 QEPs per query) alike. The Pareto
// reduction after it reads the lattice's structure where the linear
// route allows: when both metrics' node coefficients β₄ agree in sign,
// every (side, left-size) row is ordered alike in both metrics along
// the ascending right axis, so only each row's best end and its ties
// can be Pareto-optimal, and the staircase scan (moo.ParetoFrontInto)
// examines those 2·|L| rows and their ties instead of all 2·|L|·|R|.
// Any other sweep — signs that disagree, non-finite or overflowing
// terms, an unsorted axis, other than two metrics, the per-plan route —
// hands the whole matrix to the scan, O(n log |front|).
// docs/performance.md has the measured grid.

// planSweeper is one scheduling round's estimator: the lattice it
// sweeps and how plans are scored, bound to
// the round's query and history snapshot. A sweep takes one of two
// routes. With a LinearCostModel and an InputSizer executor, linear is
// set and walk applies the model's coefficients straight to the
// lattice's axes. Otherwise estimate asks the executor and the model
// plan by plan.
type planSweeper struct {
	lat   *federation.PlanLattice
	exec  federation.Executor
	model CostModel
	// snap is the round's one history snapshot.
	snap *core.Snapshot
	// linear is model on the linear route, nil on the per-plan one.
	linear LinearCostModel
	// leftMiB and rightMiB are the query's table sizes on the linear
	// route, sizeErr the executor's failure to say.
	leftMiB, rightMiB float64
	sizeErr           error
	// ordered is set by a walk whose every chunk passed rowsOrdered: each
	// (side, left-size) row of its matrix is ordered alike in both
	// metrics, so front may read the rows' ends alone.
	ordered bool
	// buf is the round's scratch: the backing of every matrix it
	// returns, so a matrix is valid until the round's next one.
	buf *sweepBuf
}

// sweepBuf is one round's storage: the Sweep header PlanSweep returns,
// the planSweeper and its history snapshot, the backing of the cost
// matrix, the Pareto front's indices and its raw and normalized rows,
// and the candidates of a front read from row ends when they outgrow
// the stack. PlanSweep takes one from sweepPool and ReleaseSweep puts it
// back, so the serving cycle (sweep, decide, release) reuses all of it
// — the 32 KB matrix of a 2,048-plan sweep among it — instead of
// allocating and collecting it per request. A sync.Pool, not a free
// list: every GC drains it, so nothing it holds is retained heap.
type sweepBuf struct {
	sw    Sweep
	ps    planSweeper
	snap  core.Snapshot
	costs []float64
	// frontIdx and front back the Pareto front: its indices, then its
	// raw rows followed by their normalized twins.
	frontIdx []int
	front    []float64
	// candCosts and candAt hold rowEndsFront's candidate rows and their
	// lattice indices past candidateBuf of them.
	candCosts []float64
	candAt    []int
}

var sweepPool = sync.Pool{New: func() any { return new(sweepBuf) }}

// release hands b back to the pool. It first drops the round's header,
// planSweeper and snapshot, so a pooled buffer keeps no history,
// lattice, executor or model reachable. Under the race detector it also
// fills the matrix and front backings with NaN and the front's indices
// with -1: whatever still reads them — a view kept past ReleaseSweep —
// then sees a NaN cost or an index out of range instead of a later
// sweep's values.
func (b *sweepBuf) release() {
	b.sw, b.ps, b.snap = Sweep{}, planSweeper{}, core.Snapshot{}
	if raceEnabled {
		for _, v := range [][]float64{b.costs[:cap(b.costs)], b.front[:cap(b.front)]} {
			for i := range v {
				v[i] = math.NaN()
			}
		}
		idx := b.frontIdx[:cap(b.frontIdx)]
		for i := range idx {
			idx[i] = -1
		}
	}
	sweepPool.Put(b)
}

// sweeper binds one round to q, one snapshot of h and the scratch buf,
// so every plan of the round is scored against one history version even
// while other requests append observations. A LinearCostModel over an
// executor that knows the query's input sizes (federation.InputSizer)
// takes the linear route; any other pair — a decorator that hides
// either capability, a custom model — is scored plan by plan. The
// planSweeper and the snapshot live in buf.
func (s *Scheduler) sweeper(q tpch.QueryID, h *core.History, lat *federation.PlanLattice, buf *sweepBuf) *planSweeper {
	h.SnapshotTo(&buf.snap)
	ps := &buf.ps
	*ps = planSweeper{lat: lat, exec: s.exec, model: s.model, snap: &buf.snap, buf: buf}
	sizer, sized := s.exec.(federation.InputSizer)
	if m, ok := s.model.(LinearCostModel); ok && sized {
		lb, rb, err := sizer.InputBytes(q)
		ps.linear, ps.leftMiB, ps.rightMiB, ps.sizeErr = m, lb/(1024*1024), rb/(1024*1024), err
	}
	return ps
}

// sweepChunk is how many plans estimate scores between two ctx checks:
// large enough that the check vanishes against the per-plan work.
const sweepChunk = 256

// sweep scores the whole lattice in lattice order: walk on the linear
// route, estimate otherwise.
func (ps *planSweeper) sweep(ctx context.Context) (moo.CostMatrix, error) {
	if ps.linear != nil {
		return ps.walk(ctx)
	}
	return ps.estimate(ctx)
}

// estimate scores the lattice's plans one by one and returns their cost
// vectors positionally, as the rows of one flat matrix, clamped at zero:
// negative predictions are meaningless for time/money, and the clamp
// keeps dominance computations sane. Each plan's features come from the
// executor, its cost vector from the model against the round's
// snapshot. Every vector must have the first one's length, and a
// failure names its plan — always the one with the lowest position,
// nothing past it scored. ctx is checked every sweepChunk plans.
func (ps *planSweeper) estimate(ctx context.Context) (moo.CostMatrix, error) {
	plans := ps.lat.Plans()
	flat := ps.matrix(len(plans) * len(federation.Metrics))
	k := 0 // cost-vector length, fixed by the first plan
	for i, p := range plans {
		if i%sweepChunk == 0 {
			if err := ctx.Err(); err != nil {
				return moo.CostMatrix{}, err
			}
		}
		x, err := ps.exec.Features(p)
		if err == nil && len(x) != federation.FeatureDim {
			err = fmt.Errorf("ires: executor returned %d features, want %d", len(x), federation.FeatureDim)
		}
		if err != nil {
			return moo.CostMatrix{}, fmt.Errorf("ires: features of %v: %w", p, err)
		}
		c, err := ps.model.EstimateSnapshot(ps.snap, x)
		if i == 0 {
			k = len(c)
		}
		if err == nil && k == 0 {
			// Empty vectors would all be "non-dominated", and unreportable.
			return moo.CostMatrix{}, fmt.Errorf("ires: model returned no costs for %v", p)
		}
		if err == nil && len(c) != k {
			err = fmt.Errorf("ires: model returned %d costs after %d per plan", len(c), k)
		}
		if err != nil {
			return moo.CostMatrix{}, fmt.Errorf("ires: estimating %v: %w", p, err)
		}
		at := len(flat)
		flat = append(flat, c...)
		clampRows(flat[at:])
	}
	return moo.FlatCostMatrix(flat, k)
}

// matrix returns the round's matrix backing, emptied, with room for n
// values.
func (ps *planSweeper) matrix(n int) []float64 {
	ps.buf.costs = slices.Grow(ps.buf.costs[:0], n)
	return ps.buf.costs
}

// walk is a full sweep on the linear route: the whole lattice scored
// by its axes into one matrix in lattice order, bit for bit what
// estimate gives. A chunk is whole rows of the left
// axis, both sides — at most sweepChunk plans, at least one row — and
// costs a ctx check and one fit lookup counted as the chunk's plans; a
// failure names the chunk's first plan in lattice order.
func (ps *planSweeper) walk(ctx context.Context) (moo.CostMatrix, error) {
	lat := ps.lat
	left, right := lat.Axes()
	rows := walkRows(len(right))
	var flat []float64
	k, ordered := 0, true
	for lo := 0; lo < len(left); lo += rows {
		if err := ctx.Err(); err != nil {
			return moo.CostMatrix{}, err
		}
		hi := min(lo+rows, len(left))
		n := 2 * (hi - lo) * len(right)
		first := lat.At(lat.Index(0, lo, 0))
		if ps.sizeErr != nil {
			return moo.CostMatrix{}, fmt.Errorf("ires: features of %v: %w", first, ps.sizeErr)
		}
		models, err := ps.linear.LinearModels(ps.snap, federation.FeatureDim, n)
		if err == nil {
			err = checkLinear(models)
		}
		if err != nil {
			return moo.CostMatrix{}, fmt.Errorf("ires: estimating %v: %w", first, err)
		}
		if lo == 0 {
			if k = len(models); k == 0 {
				return moo.CostMatrix{}, fmt.Errorf("ires: model returned no costs for %v", first)
			}
			flat = ps.matrix(lat.Size() * k)[:lat.Size()*k]
		}
		if len(models) != k {
			return moo.CostMatrix{}, fmt.Errorf("ires: model returned %d costs for %d plans, want %d each",
				len(models)*n, n, k)
		}
		ordered = ordered && rowsOrdered(models, left[lo:hi], right, ps.leftMiB, ps.rightMiB)
		walkLinearCosts(flat, models, left[lo:hi], right, lo*len(right)*k, len(left)*len(right)*k, ps.leftMiB, ps.rightMiB)
	}
	ps.ordered = ordered
	return moo.FlatCostMatrix(flat, k)
}

// walkRows is how many rows of the left axis one chunk of walk scores
// when the right axis has n sizes: as many as fit in sweepChunk plans
// over both sides, at least one.
func walkRows(n int) int { return max(1, sweepChunk/(2*n)) }

// walkLinearCosts writes the cost vectors the per-metric models give
// whole rows of a lattice, each value clamped at zero: bit for bit what
// regression.Model.Predict of a plan's feature row — what
// federation.AppendFeatures writes at the given table sizes — and a
// clamp give, without the row. It covers every plan whose left node
// count is in left, for every right node count in right, on both sides:
// side 0 (join at left) from out[at], side 1 from out[at+side], k values
// per plan in lattice order. Each metric's β₀ + β₁·leftMiB + β₂·rightMiB
// + β₃·nl is summed once per left size and + β₄·nr once per (left,
// right) pair, then the join term is added for each side: Predict's
// intermediates in Predict's order. The models must have passed
// checkLinear.
func walkLinearCosts(out []float64, models []*regression.Model, left, right []int, at, side int, leftMiB, rightMiB float64) {
	k, w := len(models), len(right)*len(models)
	// Two metrics per pass over the plans — the served pair in one. An
	// odd last metric pairs with itself (d = 0): it is scored twice and
	// its first store overwritten.
	for lo := 0; lo < k; lo += 2 {
		next := min(lo+1, k-1)
		a, b, d := linearTerms(models[lo], leftMiB, rightMiB), linearTerms(models[next], leftMiB, rightMiB), next-lo
		// β₅·join for join 1 and 0; the multiply by 0 stays, so an
		// infinite β₅ still gives NaN.
		aj1, aj0, bj1, bj0 := a[3]*1, a[3]*0, b[3]*1, b[3]*0
		for li, nl := range left {
			x := float64(nl)
			ua, ub := a[0]+a[1]*x, b[0]+b[1]*x
			o := at + li*w
			s0, s1 := out[o+lo:o+w], out[side+o+lo:side+o+w]
			for ri, nr := range right {
				y := float64(nr)
				ta, tb := ua+a[2]*y, ub+b[2]*y
				j := ri * k
				s0[j+d] = clampCost(tb + bj1)
				s0[j] = clampCost(ta + aj1)
				s1[j+d] = clampCost(tb + bj0)
				s1[j] = clampCost(ta + aj0)
			}
		}
	}
}

// rowsOrdered reports whether every row walkLinearCosts scores from
// models over left × right — one side, one left size, the right axis
// in order — is ordered alike in both of two metrics: each metric's
// value along the row is clamp(((t₀ + β₃·nl) + β₄·nr) + β₅·join), and
// when the right axis strictly ascends and no partial sum can overflow,
// rounding, the adds and the clamp are all monotone, so the value moves
// with β₄'s sign (±0 moves with either). Two metrics whose β₄ agree
// then rise together or fall together, and a row's best end weakly
// dominates the rest of it. Anything else — signs that disagree, a
// non-finite term, an empty, unsorted or repeating axis, other than two
// metrics — is false.
func rowsOrdered(models []*regression.Model, left, right []int, leftMiB, rightMiB float64) bool {
	if len(models) != 2 || len(right) == 0 {
		return false
	}
	for i := 1; i < len(right); i++ {
		if right[i] <= right[i-1] {
			return false
		}
	}
	x := 0.0
	for _, nl := range left {
		x = max(x, math.Abs(float64(nl)))
	}
	y := max(math.Abs(float64(right[0])), math.Abs(float64(right[len(right)-1])))
	rise, fall := false, false
	for _, m := range models {
		t := linearTerms(m, leftMiB, rightMiB)
		// Every partial sum is at most this in magnitude, give or take
		// its roundings; NaN and ±Inf fail the test too.
		if !(math.Abs(t[0])+math.Abs(t[1])*x+math.Abs(t[2])*y+math.Abs(t[3]) <= math.MaxFloat64/2) {
			return false
		}
		rise, fall = rise || t[2] > 0, fall || t[2] < 0
	}
	return !(rise && fall)
}

// candidateBuf is how many candidate rows rowEndsFront holds on the
// stack (3 KB); more go to the sweepBuf's pooled storage. A 2,048-plan
// lattice has 64 row ends, the 18,432-plan one 192.
const candidateBuf = 128

// front reduces costs, the round's matrix, to its Pareto front's
// indices in ps.buf.frontIdx, ascending, and returns how many rows the
// reduction examined: the row ends and their ties after an ordered
// walk, every row otherwise. Either way the indices are
// moo.ParetoFront(costs)'s.
func (ps *planSweeper) front(costs moo.CostMatrix) int {
	b := ps.buf
	if !ps.ordered {
		b.frontIdx = moo.ParetoFrontInto(b.frontIdx, costs)
		return costs.Len()
	}
	_, right := ps.lat.Axes()
	return b.rowEndsFront(costs, len(right))
}

// rowEndsFront is moo.ParetoFrontInto into b.frontIdx for a two-metric
// costs whose every run of n rows from a multiple of n is ordered alike
// in both metrics (rowsOrdered). Each run's best end weakly dominates
// the rest of it, so only that end and its copies, a contiguous run of
// equal rows, can be on the front, and a row any other row dominates is
// dominated by that row's run end too: the front of those candidates,
// mapped back to their indices, is the front of costs. It returns the
// candidate count.
func (b *sweepBuf) rowEndsFront(costs moo.CostMatrix, n int) int {
	total := 0
	for r := 0; r < costs.Len(); r += n {
		_, m := bestEnd(costs, r, n)
		total += m
	}
	var stackCosts [2 * candidateBuf]float64
	var stackAt [candidateBuf]int
	cand, at := stackCosts[:0], stackAt[:0]
	if total > candidateBuf {
		b.candCosts = slices.Grow(b.candCosts[:0], 2*total)
		b.candAt = slices.Grow(b.candAt[:0], total)
		cand, at = b.candCosts, b.candAt
	}
	for r := 0; r < costs.Len(); r += n {
		i, m := bestEnd(costs, r, n)
		for ; m > 0; i, m = i+1, m-1 {
			cand, at = append(cand, costs.Row(i)...), append(at, i)
		}
	}
	front, _ := moo.FlatCostMatrix(cand, 2) // whole rows of two: no error
	b.frontIdx = moo.ParetoFrontInto(b.frontIdx, front)
	for j, c := range b.frontIdx {
		b.frontIdx[j] = at[c]
	}
	return total
}

// bestEnd returns the first index and the length of the run of rows at
// the best end of the ordered run of n rows from r: the first row and
// its copies when it is no worse than the last in both metrics, else
// the last row and its copies.
func bestEnd(costs moo.CostMatrix, r, n int) (first, count int) {
	lo, hi := costs.Row(r), costs.Row(r+n-1)
	if lo[0] <= hi[0] && lo[1] <= hi[1] {
		i := r + 1
		for i < r+n && sameCosts(costs.Row(i), lo) {
			i++
		}
		return r, i - r
	}
	i := r + n - 2
	for i >= r && sameCosts(costs.Row(i), hi) {
		i--
	}
	return i + 1, r + n - 1 - i
}

// sameCosts reports whether two-metric rows a and b are equal in both
// metrics, as dominance compares them (−0 equals +0).
func sameCosts(a, b []float64) bool { return a[0] == b[0] && a[1] == b[1] }

// checkLinear is regression.ErrDimension unless every model is over
// FeatureDim features.
func checkLinear(models []*regression.Model) error {
	for _, m := range models {
		if m.L != federation.FeatureDim {
			return fmt.Errorf("%w: model has %d features, plans have %d", regression.ErrDimension, m.L, federation.FeatureDim)
		}
	}
	return nil
}

// linearTerms is m's {β₀ + β₁·leftMiB + β₂·rightMiB, β₃, β₄, β₅}: the
// table-size terms are the same for every plan of a query, and their
// sum is Predict's first two steps. walkLinearCosts adds the node and
// join terms to it in Predict's order — no fused multiply-add, no other
// reassociation, and the join term is multiplied even when it is 0, as
// Predict does.
func linearTerms(m *regression.Model, leftMiB, rightMiB float64) [4]float64 {
	b := m.Beta[:federation.FeatureDim+1]
	return [4]float64{b[0] + b[1]*leftMiB + b[2]*rightMiB, b[3], b[4], b[5]}
}

// clampCost clamps a predicted cost at zero. Not max: −0 and NaN pass
// through, as clampRows leaves them.
func clampCost(c float64) float64 {
	if c < 0 {
		return 0
	}
	return c
}
