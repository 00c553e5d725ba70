package ires

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/moo"
	"repro/internal/tpch"
)

// A sweep scores plans of one query's lattice. Which ones is the
// PrunePolicy's call: FullSweep, the reference and what midasd serves,
// scores every plan in lattice order; GreedyPrune trades a bounded
// amount of decision quality for a cheaper sweep in the paper's Example
// 3.1 regime (≈18,200 QEPs per query), for embedders that assemble
// lattices that large — no topology midasd serves exceeds 128 plans.
// The tolerance is pinned by experiments.AblationPrune and the property
// tests in prune_test.go; docs/performance.md has the measured grid.

// planSweeper is one scheduling round's estimator: the lattice a
// PrunePolicy draws from (nil outside a sweep) and the two batch steps
// of scoring, bound to the round's query and history snapshot.
type planSweeper struct {
	lat *federation.PlanLattice
	// features appends the plans' feature vectors to dst, FeatureDim
	// values each; on a failure the rows before the failing plan's are
	// still appended, which is how estimate knows which plan it was.
	features func(dst []float64, plans []federation.Plan) ([]float64, error)
	// costs appends the cost vectors, all of one length, of the
	// FeatureDim-wide feature rows in xs to dst, scored against the
	// round's history snapshot (the live history for non-snapshot
	// models). An error that is not a *rowError is the first row's.
	costs func(dst, xs []float64) ([]float64, error)
	// buf is the round's scratch: its matrix backing goes to the first
	// estimate call (then lent is set), its feature rows to every chunk of
	// every call.
	buf  *sweepBuf
	lent bool
}

// sweepBuf is a sweep's scratch: the backing of its cost matrix and the
// chunk feature rows. PlanSweep takes one from sweepPool and ReleaseSweep
// puts it back, so the serving cycle (sweep, decide, release) reuses the
// 32 KB matrix and 10 KB of feature rows of a 2,048-plan sweep instead of
// allocating and collecting them per request. A sync.Pool, not a free
// list: every GC drains it, so nothing it holds is retained heap.
type sweepBuf struct {
	costs, feats []float64
}

var sweepPool = sync.Pool{New: func() any { return new(sweepBuf) }}

// release hands b back to the pool. Under the race detector it first
// fills the matrix backing with NaN: whatever still reads it — a view
// kept past ReleaseSweep — then sees a NaN cost and a changed decision.
func (b *sweepBuf) release() {
	if raceEnabled {
		v := b.costs[:cap(b.costs)]
		for i := range v {
			v[i] = math.NaN()
		}
	}
	sweepPool.Put(b)
}

// rowError is how the per-plan cost adapter says which row of the chunk
// failed; estimate names the plan at that position.
type rowError struct {
	row int
	err error
}

func (e *rowError) Error() string { return e.err.Error() }
func (e *rowError) Unwrap() error { return e.err }

// sweeper binds one round to q, h and the scratch buf. Snapshot-capable
// models get a single point-in-time snapshot, so every plan of the round
// is scored against one history version even while other requests
// append observations. An executor that knows the query's input sizes
// (federation.InputSizer) and a model that scores chunks
// (BatchCostModel) are used as such; one that only has the per-plan
// method — a decorator that wraps it, a custom model — is wrapped here,
// once, in an adapter that loops, so the estimation loop itself has one
// shape.
func (s *Scheduler) sweeper(q tpch.QueryID, h *core.History, lat *federation.PlanLattice, buf *sweepBuf) *planSweeper {
	ps := &planSweeper{lat: lat, buf: buf}
	if sizer, ok := s.Exec.(federation.InputSizer); ok {
		lb, rb, err := sizer.InputBytes(q)
		leftMiB, rightMiB := lb/(1024*1024), rb/(1024*1024)
		ps.features = func(dst []float64, plans []federation.Plan) ([]float64, error) {
			if err != nil {
				return dst, err
			}
			for _, p := range plans {
				dst = federation.AppendFeatures(dst, p, leftMiB, rightMiB)
			}
			return dst, nil
		}
	} else {
		ps.features = perPlanFeatures(s.Exec)
	}
	switch m := s.Model.(type) {
	case BatchCostModel:
		snap := h.Snapshot()
		ps.costs = func(dst, xs []float64) ([]float64, error) {
			return m.EstimateRows(dst, snap, xs, federation.FeatureDim)
		}
	case SnapshotCostModel:
		snap := h.Snapshot()
		ps.costs = perPlanCosts(func(x []float64) ([]float64, error) { return m.EstimateSnapshot(snap, x) })
	default:
		ps.costs = perPlanCosts(func(x []float64) ([]float64, error) { return m.Estimate(h, x) })
	}
	return ps
}

// perPlanFeatures adapts an executor that only has the per-plan method
// to planSweeper.features.
func perPlanFeatures(exec federation.Executor) func(dst []float64, plans []federation.Plan) ([]float64, error) {
	return func(dst []float64, plans []federation.Plan) ([]float64, error) {
		for _, p := range plans {
			x, err := exec.Features(p)
			if err == nil && len(x) != federation.FeatureDim {
				err = fmt.Errorf("ires: executor returned %d features, want %d", len(x), federation.FeatureDim)
			}
			if err != nil {
				return dst, err
			}
			dst = append(dst, x...)
		}
		return dst, nil
	}
}

// perPlanCosts adapts a per-plan scoring function to planSweeper.costs.
func perPlanCosts(estimateX func(x []float64) ([]float64, error)) func(dst, xs []float64) ([]float64, error) {
	return func(dst, xs []float64) ([]float64, error) {
		k := -1
		for i := 0; len(xs) > 0; i, xs = i+1, xs[federation.FeatureDim:] {
			c, err := estimateX(xs[:federation.FeatureDim:federation.FeatureDim])
			if k < 0 {
				k = len(c)
			}
			if err == nil && len(c) != k {
				err = fmt.Errorf("ires: model returned %d costs after %d per plan", len(c), k)
			}
			if err != nil {
				return dst, &rowError{i, err}
			}
			dst = append(dst, c...)
		}
		return dst, nil
	}
}

// sweepChunk is how many plans estimate lays out and scores at a time:
// large enough that the per-chunk steps (the fit lookup, the ctx check)
// vanish against the per-plan arithmetic, small enough that the feature
// scratch stays in L1.
const sweepChunk = 256

// estimate scores plans and returns their cost vectors positionally,
// as the rows of one flat matrix: per chunk of sweepChunk plans, one
// pass writes the feature rows into the round's scratch, one asks the
// model for the chunk's cost rows, one clamps them — the only clamp a
// batch model's rows get. The first call's matrix is the round's pooled
// backing, later calls (GreedyPrune refines in several) allocate their
// own. A failure is always the one with the lowest position — rows
// before a feature failure are still scored, in case the model fails
// earlier — and nothing past it is scored. ctx is checked between
// chunks.
func (ps *planSweeper) estimate(ctx context.Context, plans []federation.Plan) (moo.CostMatrix, error) {
	n, b := len(plans), ps.buf
	var flat []float64
	if ps.lent {
		flat = make([]float64, 0, n*len(federation.Metrics))
	} else {
		ps.lent = true
		b.costs = slices.Grow(b.costs[:0], n*len(federation.Metrics))
		flat = b.costs
	}
	b.feats = slices.Grow(b.feats[:0], min(n, sweepChunk)*federation.FeatureDim)
	k := 0 // cost-vector length, fixed by the first chunk
	for lo := 0; lo < n; lo += sweepChunk {
		if err := ctx.Err(); err != nil {
			return moo.CostMatrix{}, err
		}
		chunk := plans[lo:min(lo+sweepChunk, n)]
		xs, ferr := ps.features(b.feats, chunk)
		b.feats = xs[:0]
		rows, scored := len(xs)/federation.FeatureDim, len(flat)
		var err error
		if rows > 0 {
			flat, err = ps.costs(flat, xs)
		}
		if err != nil {
			row := 0
			var re *rowError
			if errors.As(err, &re) {
				row, err = re.row, re.err
			}
			return moo.CostMatrix{}, fmt.Errorf("ires: estimating %v: %w", chunk[row], err)
		}
		if ferr != nil {
			return moo.CostMatrix{}, fmt.Errorf("ires: features of %v: %w", chunk[rows], ferr)
		}
		if lo == 0 {
			// Empty vectors would all be "non-dominated", and unreportable.
			if k = (len(flat) - scored) / rows; k == 0 {
				return moo.CostMatrix{}, fmt.Errorf("ires: model returned no costs for %v", chunk[0])
			}
		}
		if len(flat)-scored != rows*k {
			return moo.CostMatrix{}, fmt.Errorf("ires: model returned %d costs for %d plans, want %d each", len(flat)-scored, rows, k)
		}
		// Negative predictions are meaningless for time/money; clamp
		// so dominance computations stay sane.
		clampRows(flat[scored:])
	}
	return moo.FlatCostMatrix(flat, k)
}

// plansAt returns the lattice's plans at the given positions.
func plansAt(lat *federation.PlanLattice, idx []int) []federation.Plan {
	out := make([]federation.Plan, len(idx))
	for i, at := range idx {
		out[i] = lat.At(at)
	}
	return out
}

// PrunePolicy decides which QEPs of a lattice get estimated during a
// sweep. Policies must be deterministic for a fixed (lattice, history
// snapshot) — the byte-identical-decisions guarantee (cached vs
// uncached, any GOMAXPROCS, any request concurrency) extends to pruned
// sweeps. The policy set is closed (the sweep hook is unexported):
// FullSweep or GreedyPrune.
type PrunePolicy interface {
	// Name is the policy's wire identifier ("full", "greedy"), surfaced
	// in Sweep/Decision and the serving API.
	Name() string
	// sweep selects and scores plans, returning the estimated subset
	// and its cost vectors, row i plan i's, in deterministic order.
	sweep(ctx context.Context, ps *planSweeper) ([]federation.Plan, moo.CostMatrix, error)
}

// ---------------------------------------------------------------------------
// FullSweep

// fullSweep estimates every plan of the lattice in order — the paper's
// behavior and the reference GreedyPrune is measured against.
type fullSweep struct{}

// FullSweep returns the default prune policy: no pruning. Every QEP in
// the lattice is estimated, in lattice order; sweeps are byte-identical
// to the historic eager enumeration.
func FullSweep() PrunePolicy { return fullSweep{} }

// Name implements PrunePolicy.
func (fullSweep) Name() string { return "full" }

func (fullSweep) sweep(ctx context.Context, ps *planSweeper) ([]federation.Plan, moo.CostMatrix, error) {
	plans := ps.lat.Plans()
	costs, err := ps.estimate(ctx, plans)
	if err != nil {
		return nil, moo.CostMatrix{}, err
	}
	return plans, costs, nil
}

// ---------------------------------------------------------------------------
// GreedyPrune

// greedyPrune is the cost-ordered lattice walk: estimate a coarse
// scaffold of the lattice, then refine around the running Pareto front
// in best-first order, stopping early once a whole chunk of candidates
// fails to improve the front (a dominated prefix) or the budget is
// spent.
type greedyPrune struct {
	budget int
}

// GreedyPrune returns the cost-ordered pruning policy. budget caps the
// number of plans estimated per sweep; 0 picks max(256, latticeSize/16),
// a ≥10× reduction in the paper's 18,200-plan regime. Lattices no
// larger than the budget are swept in full, so small federations see
// the exact reference behavior.
//
// Why greedy holds up here: DREAM's cost model is affine in the
// per-site node counts for each join placement, so the model's Pareto
// front hugs the lattice boundary; a strided scaffold plus axis-aligned
// refinement around scaffold front members recovers it without touching
// the interior. The ablation (experiments.AblationPrune) and the
// property test in prune_test.go pin the selected decision within 15%
// of the full sweep's choice.
func GreedyPrune(budget int) PrunePolicy { return greedyPrune{budget: budget} }

// Name implements PrunePolicy.
func (greedyPrune) Name() string { return "greedy" }

// greedyChunk is the refinement batch size: how many candidates are
// estimated between two checks for a dominated prefix.
const greedyChunk = 64

func (g greedyPrune) sweep(ctx context.Context, ps *planSweeper) ([]federation.Plan, moo.CostMatrix, error) {
	n := ps.lat.Size()
	budget := g.budget
	if budget <= 0 {
		budget = n / 16
		if budget < 256 {
			budget = 256
		}
	}
	if budget >= n {
		return fullSweep{}.sweep(ctx, ps)
	}

	scaffold, strides := greedyScaffold(ps.lat, budget/2)
	plans := plansAt(ps.lat, scaffold)
	costs, err := ps.estimate(ctx, plans)
	if err != nil {
		return nil, moo.CostMatrix{}, err
	}
	sel := append([]int(nil), scaffold...)
	seen := make(map[int]bool, budget)
	for _, i := range scaffold {
		seen[i] = true
	}

	// Running Pareto front over the estimated set, as positions into
	// sel/costs. Only used to order refinement and detect dominated
	// prefixes; the sweep's real front is recomputed globally by the
	// caller.
	var front []int
	insert := func(pos int) bool {
		kept, cp := front[:0], costs.Row(pos)
		for _, f := range front {
			// Rows of one matrix have one width: Dominates cannot fail.
			cf := costs.Row(f)
			if dom, _ := moo.Dominates(cf, cp); dom {
				return false
			}
			if dominated, _ := moo.Dominates(cp, cf); !dominated {
				kept = append(kept, f)
			}
		}
		front = append(kept, pos)
		return true
	}
	for pos := range sel {
		insert(pos)
	}

	queue := greedyCandidates(ps.lat, sel, costs, front, strides, seen)
	remaining := budget - len(sel)
	if remaining < 0 {
		remaining = 0
	}
	if len(queue) > remaining {
		queue = queue[:remaining]
	}
	for len(queue) > 0 {
		chunk := queue
		if len(chunk) > greedyChunk {
			chunk = chunk[:greedyChunk]
		}
		queue = queue[len(chunk):]
		chunkPlans := plansAt(ps.lat, chunk)
		chunkCosts, err := ps.estimate(ctx, chunkPlans)
		if err != nil {
			return nil, moo.CostMatrix{}, err
		}
		if costs, err = costs.Append(chunkCosts); err != nil {
			return nil, moo.CostMatrix{}, err
		}
		plans = append(plans, chunkPlans...)
		improved := false
		for _, flat := range chunk {
			sel = append(sel, flat)
			if insert(len(sel) - 1) {
				improved = true
			}
		}
		if !improved {
			// Dominated prefix: the best-first queue has stopped paying;
			// everything behind it is ordered worse still.
			break
		}
	}

	return plans, costs, nil
}

// greedyScaffold picks the coarse sample of the lattice: an even grid
// over its axes, endpoints always included. It returns the flat
// positions in deterministic order plus the per-axis strides the
// refinement phase walks.
func greedyScaffold(lat *federation.PlanLattice, target int) (scaffold []int, strides [2]int) {
	sides, left, right := lat.Dims()
	k := int(math.Sqrt(float64(target / sides)))
	if k < 2 {
		k = 2
	}
	li := axisSamples(left, k)
	ri := axisSamples(right, k)
	for s := 0; s < sides; s++ {
		for _, l := range li {
			for _, r := range ri {
				scaffold = append(scaffold, lat.Index(s, l, r))
			}
		}
	}
	strides[0] = axisStride(left, k)
	strides[1] = axisStride(right, k)
	return scaffold, strides
}

// axisStride is the sampling stride that covers an axis of length
// n ≥ 1 with about k points.
func axisStride(n, k int) int { return (n + k - 1) / k }

// axisSamples returns the sampled indices of one axis: every stride-th
// point plus the far endpoint (the model's extrapolation anchor).
func axisSamples(n, k int) []int {
	stride := axisStride(n, k)
	out := make([]int, 0, n/stride+2)
	for i := 0; i < n; i += stride {
		out = append(out, i)
	}
	if out[len(out)-1] != n-1 {
		out = append(out, n-1)
	}
	return out
}

// greedyCandidates builds the refinement queue: the unseen neighbors of
// the scaffold's Pareto-front members, parents visited best-first
// (weighted-normalized scaffold cost, flat index breaking ties) and
// each parent's neighborhood emitted in a fixed axis/distance order —
// the "cost-ordered lattice walk".
func greedyCandidates(lat *federation.PlanLattice, sel []int, costs moo.CostMatrix, front []int, strides [2]int, seen map[int]bool) []int {
	// Min-max normalize over the scaffold so seconds and dollars weigh
	// equally in the parent ordering.
	lo := append([]float64(nil), costs.Row(0)...)
	hi := append([]float64(nil), costs.Row(0)...)
	for i := 1; i < costs.Len(); i++ {
		for j, v := range costs.Row(i) {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	weight := func(c []float64) float64 {
		w := 0.0
		for j, v := range c {
			if hi[j] > lo[j] {
				w += (v - lo[j]) / (hi[j] - lo[j])
			}
		}
		return w
	}
	parents := append([]int(nil), front...)
	sort.Slice(parents, func(a, b int) bool {
		wa, wb := weight(costs.Row(parents[a])), weight(costs.Row(parents[b]))
		if wa != wb {
			return wa < wb
		}
		return sel[parents[a]] < sel[parents[b]]
	})

	var queue []int
	push := func(flat int) {
		if seen[flat] {
			return
		}
		seen[flat] = true
		queue = append(queue, flat)
	}
	_, left, right := lat.Dims()
	block := left * right
	for _, p := range parents {
		flat := sel[p]
		side, rem := flat/block, flat%block
		li, ri := rem/right, rem%right
		for d := 1; d < strides[0]; d++ {
			if li-d >= 0 {
				push(lat.Index(side, li-d, ri))
			}
			if li+d < left {
				push(lat.Index(side, li+d, ri))
			}
		}
		for d := 1; d < strides[1]; d++ {
			if ri-d >= 0 {
				push(lat.Index(side, li, ri-d))
			}
			if ri+d < right {
				push(lat.Index(side, li, ri+d))
			}
		}
	}
	return queue
}
