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

// A sweep scores the plans of one query's lattice against one history
// snapshot: what midasd serves, and the paper's Example 3.1 regime
// (≈18,200 QEPs per query) alike. On the linear route it reads the
// lattice's structure before it scores anything: when both metrics'
// node coefficients β₄ agree in sign, every (side, left-size) row is
// ordered alike in both metrics along the ascending right axis, so only
// each row's best end and its ties can be Pareto-optimal (the staircase
// bound of Kung, Luccio & Preparata, JACM 1975), and the walk scores
// just those 2·|L| rows, their ties and the row that ends each run of
// ties, straight into the candidate rows the staircase scan
// (moo.ParetoFrontInto) reduces. Any other sweep — signs that disagree,
// non-finite or overflowing terms, an unsorted axis, other than two
// metrics, the per-plan route — scores all 2·|L|·|R| plans and hands
// the whole matrix to the scan, O(n log |front|).
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
	// fit is the models of a walk's one lookup, which it scores every
	// plan with, and AllCosts too.
	fit []*regression.Model
	// buf is the round's scratch: the backing of every matrix it
	// returns, so a matrix is valid until the round's next one.
	buf *sweepBuf
}

// sweepBuf is one round's storage: the Sweep header PlanSweep returns,
// the planSweeper and its history snapshot, the backing of the rows the
// round scored, the Pareto front's indices and its raw and normalized
// rows. PlanSweep takes one from sweepPool and ReleaseSweep puts it
// back, so the serving cycle (sweep, decide, release) reuses all of it
// instead of allocating and collecting it per request. A sync.Pool, not
// a free list: every GC drains it, so nothing it holds is retained heap.
type sweepBuf struct {
	sw   Sweep
	ps   planSweeper
	snap core.Snapshot
	// costs backs the rows the round scored — every plan's, or an
	// ordered walk's candidates — and at the candidates' lattice
	// indices.
	costs []float64
	at    []int
	// frontIdx and front back the Pareto front: its indices, then its
	// raw rows followed by their normalized twins.
	frontIdx []int
	front    []float64
	// stairs holds a two-metric front that outgrows moo's stack buffer
	// (the 18,432-plan lattice's), so the next reduction reuses it.
	stairs moo.Staircase
	// rows and rowAt are costs' and at's first backing, inside the
	// buffer: the 64 candidates of a 2,048-plan lattice fit, and so does
	// every row of a lattice midasd serves (at most 128 plans), so a
	// sweep of either that misses the pool allocates no matrix.
	rows  [2 * candidateBuf]float64
	rowAt [candidateBuf]int
}

// candidateBuf is how many two-metric rows a sweepBuf holds before its
// matrix backing grows onto the heap (3 KB). A 2,048-plan lattice has
// 64 row ends, the 18,432-plan one 192.
const candidateBuf = 128

var sweepPool = sync.Pool{New: func() any {
	b := new(sweepBuf)
	b.costs, b.at = b.rows[:0], b.rowAt[:0]
	return b
}}

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

// sweep scores the round: walk on the linear route, estimate otherwise.
// It returns the rows the Pareto reduction examines and, when those are
// not every plan in lattice order, each row's lattice index.
func (ps *planSweeper) sweep(ctx context.Context) (rows moo.CostMatrix, at []int, err error) {
	if ps.linear != nil {
		return ps.walk(ctx)
	}
	rows, err = ps.estimate(ctx)
	return rows, nil, err
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
	n := ps.lat.Size()
	flat := ps.matrix(n * len(federation.Metrics))
	k := 0 // cost-vector length, fixed by the first plan
	for i := range n {
		p := ps.lat.At(i)
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

// walk is a sweep on the linear route, bit for bit what estimate gives
// wherever it scores a plan. After one ctx check it looks the fit up
// once, counted as the lattice's plans: every lookup against the
// round's one snapshot gives the same coefficients (LinearCostModel), so
// one fit scores the round. A failure names the lattice's first plan.
// When the fit orders the rows over the whole left axis (rowsOrdered),
// walk scores only the rows' ends (rowEnds) and returns them with their
// lattice indices. Otherwise it scores every plan into one matrix in
// lattice order and returns no indices.
func (ps *planSweeper) walk(ctx context.Context) (moo.CostMatrix, []int, error) {
	if err := ctx.Err(); err != nil {
		return moo.CostMatrix{}, nil, err
	}
	lat := ps.lat
	first := lat.At(0)
	if ps.sizeErr != nil {
		return moo.CostMatrix{}, nil, fmt.Errorf("ires: features of %v: %w", first, ps.sizeErr)
	}
	models, err := ps.linear.LinearModels(ps.snap, federation.FeatureDim, lat.Size())
	if err == nil {
		err = checkLinear(models)
	}
	if err != nil {
		return moo.CostMatrix{}, nil, fmt.Errorf("ires: estimating %v: %w", first, err)
	}
	if len(models) == 0 {
		return moo.CostMatrix{}, nil, fmt.Errorf("ires: model returned no costs for %v", first)
	}
	ps.fit = models
	left, right := lat.Axes()
	if rowsOrdered(ps.fit, left, right, ps.leftMiB, ps.rightMiB) {
		b := ps.buf
		b.costs, b.at = rowEnds(b.costs[:0], b.at[:0], ps.fit, left, right, ps.leftMiB, ps.rightMiB)
		cand, err := moo.FlatCostMatrix(b.costs, 2)
		return cand, b.at, err
	}
	n := lat.Size() * len(ps.fit)
	return ps.walkAll(ps.matrix(n)[:n]), nil, nil
}

// walkAll scores every plan of the lattice with the round's fit into
// flat, which holds Size()·len(fit) values: walkLinearCosts over the
// whole of both axes.
func (ps *planSweeper) walkAll(flat []float64) moo.CostMatrix {
	left, right := ps.lat.Axes()
	k := len(ps.fit)
	walkLinearCosts(flat, ps.fit, left, right, 0, len(left)*len(right)*k, ps.leftMiB, ps.rightMiB)
	costs, _ := moo.FlatCostMatrix(flat, k) // whole rows of k ≥ 1: no error
	return costs
}

// walkLinearCosts writes the cost vectors the per-metric models give
// whole rows of a lattice, each value clamped at zero: bit for bit what
// regression.Model.Predict of a plan's feature row — what
// federation.AppendFeatures writes at the given table sizes — and a
// clamp give, without the row. It covers every plan whose left node
// count is in left, for every right node count in right, on both sides:
// side 0 (join at left) from out[at], side 1 from out[at+side], k values
// per plan in lattice order. Each metric's leftTerm is computed once per
// left size and its nodeTerm once per (left, right) pair, then
// linearCost adds the join term for each side: Predict's intermediates
// in Predict's order. The models must have passed checkLinear.
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
			ua, ub := leftTerm(a, nl), leftTerm(b, nl)
			o := at + li*w
			s0, s1 := out[o+lo:o+w], out[side+o+lo:side+o+w]
			for ri, nr := range right {
				ta, tb := nodeTerm(ua, a[2], nr), nodeTerm(ub, b[2], nr)
				j := ri * k
				s0[j+d] = linearCost(tb, bj1)
				s0[j] = linearCost(ta, aj1)
				s1[j+d] = linearCost(tb, bj0)
				s1[j] = linearCost(ta, aj0)
			}
		}
	}
}

// rowEnds appends to cand and at what an ordered walk of left × right
// scores with the two models: for each (side, left-size) row, in
// lattice order, the cost vectors of its best end and of the run of
// plans equal to it in both metrics (−0 equals +0, as dominance compares
// them), in ascending lattice order, two values a plan, and their
// lattice indices. The best end is the row's first plan when that is no
// worse than the last in both metrics, else the last. The plan that
// ends a run is scored to find the run's end, and not appended. Each
// value is the one walkLinearCosts writes for its plan.
//
// When rowsOrdered holds, each row's best end weakly dominates the rest
// of it, so only that end and its copies can be on the front, and a row
// any other row dominates is dominated by that row's best end too: the
// front of the candidates, mapped through at, is the front of the
// whole lattice.
func rowEnds(cand []float64, at []int, models []*regression.Model, left, right []int, leftMiB, rightMiB float64) ([]float64, []int) {
	a, b := linearTerms(models[0], leftMiB, rightMiB), linearTerms(models[1], leftMiB, rightMiB)
	last := len(right) - 1
	for side, join := range [2]float64{1, 0} {
		aj, bj := a[3]*join, b[3]*join
		for li, nl := range left {
			ua, ub := leftTerm(a, nl), leftTerm(b, nl)
			cost := func(ri int) (float64, float64) {
				return linearCost(nodeTerm(ua, a[2], right[ri]), aj), linearCost(nodeTerm(ub, b[2], right[ri]), bj)
			}
			base := (side*len(left) + li) * len(right)
			lo0, lo1 := cost(0)
			hi0, hi1 := cost(last)
			if lo0 <= hi0 && lo1 <= hi1 {
				cand, at = append(cand, lo0, lo1), append(at, base)
				for ri := 1; ri <= last; ri++ {
					c0, c1 := cost(ri)
					if c0 != lo0 || c1 != lo1 {
						break
					}
					cand, at = append(cand, c0, c1), append(at, base+ri)
				}
				continue
			}
			// The high end: find where its run starts, then append the run
			// ascending.
			from := last
			for from > 0 {
				if c0, c1 := cost(from - 1); c0 != hi0 || c1 != hi1 {
					break
				}
				from--
			}
			for ri := from; ri < last; ri++ {
				c0, c1 := cost(ri)
				cand, at = append(cand, c0, c1), append(at, base+ri)
			}
			cand, at = append(cand, hi0, hi1), append(at, base+last)
		}
	}
	return cand, at
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
// sum t₀ is Predict's first two steps. One plan's value of one metric is
// then
//
//	linearCost(nodeTerm(leftTerm(t, nl), t[2], nr), t[3]·join)
//
// = clamp(((t₀ + β₃·nl) + β₄·nr) + β₅·join): Predict's intermediates in
// Predict's order — no fused multiply-add, no other reassociation, and
// the join term multiplied even when it is 0, as Predict does.
// walkLinearCosts and rowEnds both score through these three, so they
// agree bit for bit.
func linearTerms(m *regression.Model, leftMiB, rightMiB float64) [4]float64 {
	b := m.Beta[:federation.FeatureDim+1]
	return [4]float64{b[0] + b[1]*leftMiB + b[2]*rightMiB, b[3], b[4], b[5]}
}

// leftTerm is t₀ + β₃·nl: the part of a metric's value that every plan
// of one (side, left-size) row shares.
func leftTerm(t [4]float64, nl int) float64 { return t[0] + t[1]*float64(nl) }

// nodeTerm is u + β₄·nr, u a leftTerm: the part both sides share.
func nodeTerm(u, b4 float64, nr int) float64 { return u + b4*float64(nr) }

// linearCost is v + j, v a nodeTerm and j = β₅·join, clamped at zero.
func linearCost(v, j float64) float64 { return clampCost(v + j) }

// clampCost clamps a predicted cost at zero. Not max: −0 and NaN pass
// through, as clampRows leaves them.
func clampCost(c float64) float64 {
	if c < 0 {
		return 0
	}
	return c
}
