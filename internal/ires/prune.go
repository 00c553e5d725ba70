package ires

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/moo"
	"repro/internal/regression"
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
// PrunePolicy draws from (nil outside a sweep) and how a chunk of plans
// is scored, bound to the round's query and history snapshot. A round
// takes one of two routes. With a LinearCostModel and an InputSizer
// executor, linear is set and scoreLinear applies the model's
// coefficients straight to the plans. Otherwise scorePlans asks the
// executor and the model plan by plan.
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
	// buf is the round's scratch: its matrix backing goes to the first
	// estimate call, then lent is set.
	buf  *sweepBuf
	lent bool
}

// sweepBuf is a sweep's scratch: the backing of its cost matrix.
// PlanSweep takes one from sweepPool and ReleaseSweep puts it back, so
// the serving cycle (sweep, decide, release) reuses the 32 KB matrix of
// a 2,048-plan sweep instead of allocating and collecting it per
// request. A sync.Pool, not a free list: every GC drains it, so nothing
// it holds is retained heap.
type sweepBuf struct {
	costs []float64
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

// sweeper binds one round to q, one snapshot of h and the scratch buf,
// so every plan of the round is scored against one history version even
// while other requests append observations. A LinearCostModel over an
// executor that knows the query's input sizes (federation.InputSizer)
// takes the linear route; any other pair — a decorator that hides
// either capability, a custom model — is scored plan by plan.
func (s *Scheduler) sweeper(q tpch.QueryID, h *core.History, lat *federation.PlanLattice, buf *sweepBuf) *planSweeper {
	ps := &planSweeper{lat: lat, exec: s.Exec, model: s.Model, snap: h.Snapshot(), buf: buf}
	sizer, sized := s.Exec.(federation.InputSizer)
	if m, ok := s.Model.(LinearCostModel); ok && sized {
		lb, rb, err := sizer.InputBytes(q)
		ps.linear, ps.leftMiB, ps.rightMiB, ps.sizeErr = m, lb/(1024*1024), rb/(1024*1024), err
	}
	return ps
}

// sweepChunk is how many plans estimate scores at a time: large enough
// that the per-chunk steps (the fit lookup, the ctx check) vanish
// against the per-plan arithmetic.
const sweepChunk = 256

// estimate scores plans and returns their cost vectors positionally,
// as the rows of one flat matrix, clamped at zero: negative predictions
// are meaningless for time/money, and the clamp keeps dominance
// computations sane. It works per chunk of sweepChunk plans, through the
// round's route. The first call's matrix is the round's pooled backing,
// later calls (GreedyPrune refines in several) allocate their own. A
// failure is always the one with the lowest position, and nothing past
// it is scored. ctx is checked between chunks.
func (ps *planSweeper) estimate(ctx context.Context, plans []federation.Plan) (moo.CostMatrix, error) {
	n := len(plans)
	flat := ps.matrix(n * len(federation.Metrics))
	k := 0 // cost-vector length, fixed by the first chunk
	for lo := 0; lo < n; lo += sweepChunk {
		if err := ctx.Err(); err != nil {
			return moo.CostMatrix{}, err
		}
		chunk := plans[lo:min(lo+sweepChunk, n)]
		scored := len(flat)
		var err error
		if ps.linear != nil {
			flat, err = ps.scoreLinear(flat, chunk)
		} else {
			flat, err = ps.scorePlans(flat, chunk)
		}
		if err != nil {
			return moo.CostMatrix{}, err
		}
		if lo == 0 {
			// Empty vectors would all be "non-dominated", and unreportable.
			if k = (len(flat) - scored) / len(chunk); k == 0 {
				return moo.CostMatrix{}, fmt.Errorf("ires: model returned no costs for %v", chunk[0])
			}
		}
		if len(flat)-scored != len(chunk)*k {
			return moo.CostMatrix{}, fmt.Errorf("ires: model returned %d costs for %d plans, want %d each", len(flat)-scored, len(chunk), k)
		}
	}
	return moo.FlatCostMatrix(flat, k)
}

// matrix returns an empty cost-matrix backing with room for n values:
// the round's pooled one on the first call, a fresh one after.
func (ps *planSweeper) matrix(n int) []float64 {
	if ps.lent {
		return make([]float64, 0, n)
	}
	ps.lent = true
	ps.buf.costs = slices.Grow(ps.buf.costs[:0], n)
	return ps.buf.costs
}

// walk is a full sweep on the linear route: the whole lattice scored
// by its axes into one matrix in lattice order, bit for bit what
// estimate over lat.Plans() gives. A chunk is whole rows of the left
// axis, both sides — at most sweepChunk plans, at least one row — with
// estimate's per-chunk steps: a ctx check, one fit lookup counted as
// the chunk's plans, and a failure that names the chunk's first plan in
// lattice order.
func (ps *planSweeper) walk(ctx context.Context) (moo.CostMatrix, error) {
	lat := ps.lat
	left, right := lat.Axes()
	rows := walkRows(len(right))
	var flat []float64
	k := 0
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
		walkLinearCosts(flat, models, left[lo:hi], right, lo*len(right)*k, len(left)*len(right)*k, ps.leftMiB, ps.rightMiB)
	}
	return moo.FlatCostMatrix(flat, k)
}

// walkRows is how many rows of the left axis one chunk of walk scores
// when the right axis has n sizes: as many as fit in sweepChunk plans
// over both sides, at least one.
func walkRows(n int) int { return max(1, sweepChunk/(2*n)) }

// scoreLinear is the linear route: one fit lookup for the chunk, then
// appendLinearCosts at the query's table sizes.
func (ps *planSweeper) scoreLinear(dst []float64, chunk []federation.Plan) ([]float64, error) {
	if ps.sizeErr != nil {
		return dst, fmt.Errorf("ires: features of %v: %w", chunk[0], ps.sizeErr)
	}
	models, err := ps.linear.LinearModels(ps.snap, federation.FeatureDim, len(chunk))
	if err == nil {
		dst, err = appendLinearCosts(dst, models, chunk, ps.leftMiB, ps.rightMiB)
	}
	if err != nil {
		return dst, fmt.Errorf("ires: estimating %v: %w", chunk[0], err)
	}
	return dst, nil
}

// scorePlans is the per-plan route: each plan's features from the
// executor, then its cost vector from the model against the round's
// snapshot, clamped at zero. Every vector of the chunk must have the
// first one's length, and a failure names its plan.
func (ps *planSweeper) scorePlans(dst []float64, chunk []federation.Plan) ([]float64, error) {
	k := -1
	for _, p := range chunk {
		x, err := ps.exec.Features(p)
		if err == nil && len(x) != federation.FeatureDim {
			err = fmt.Errorf("ires: executor returned %d features, want %d", len(x), federation.FeatureDim)
		}
		if err != nil {
			return dst, fmt.Errorf("ires: features of %v: %w", p, err)
		}
		c, err := ps.model.EstimateSnapshot(ps.snap, x)
		if k < 0 {
			k = len(c)
		}
		if err == nil && len(c) != k {
			err = fmt.Errorf("ires: model returned %d costs after %d per plan", len(c), k)
		}
		if err != nil {
			return dst, fmt.Errorf("ires: estimating %v: %w", p, err)
		}
		at := len(dst)
		dst = append(dst, c...)
		clampRows(dst[at:])
	}
	return dst, nil
}

// appendLinearCosts appends to dst, plan by plan, the cost vector the
// per-metric models give the plan's feature row — what
// federation.AppendFeatures writes at the given table sizes — each value
// clamped at zero: bit for bit what regression.Model.Predict of that row
// and a clamp give, without the row. It is the kernel for
// plans in any order (GreedyPrune's scattered subsets); walkLinearCosts
// is the one for a whole lattice. A model that is not over FeatureDim
// features is regression.ErrDimension, with nothing appended.
func appendLinearCosts(dst []float64, models []*regression.Model, plans []federation.Plan, leftMiB, rightMiB float64) ([]float64, error) {
	if err := checkLinear(models); err != nil {
		return dst, err
	}
	k, at := len(models), len(dst)
	dst = slices.Grow(dst, len(plans)*k)[:at+len(plans)*k]
	out := dst[at:]
	// Two metrics per pass over the plans — the served pair in one. An
	// odd last metric pairs with itself (d = 0): it is scored twice and
	// its first store overwritten.
	for lo := 0; lo < k; lo += 2 {
		next := min(lo+1, k-1)
		a, b, d := linearTerms(models[lo], leftMiB, rightMiB), linearTerms(models[next], leftMiB, rightMiB), next-lo
		for i, p := range plans {
			nl, nr, join := float64(p.NodesLeft), float64(p.NodesRight), 0.0
			if p.JoinAtLeft {
				join = 1
			}
			row := out[i*k+lo:]
			row[d] = clampCost(b[0] + b[1]*nl + b[2]*nr + b[3]*join)
			row[0] = clampCost(a[0] + a[1]*nl + a[2]*nr + a[3]*join)
		}
	}
	return dst, nil
}

// walkLinearCosts is appendLinearCosts over whole rows of a lattice:
// it writes the costs of every plan whose left node count is in left,
// for every right node count in right, on both sides, into out — side
// 0 (join at left) from out[at], side 1 from out[at+side], k values per
// plan in lattice order. Each metric's β₀ + β₁·leftMiB + β₂·rightMiB +
// β₃·nl is summed once per left size and + β₄·nr once per (left, right)
// pair, then the join term is added for each side: Predict's
// intermediates in Predict's order, so every bit is appendLinearCosts'.
// The models must have passed checkLinear.
func walkLinearCosts(out []float64, models []*regression.Model, left, right []int, at, side int, leftMiB, rightMiB float64) {
	k, w := len(models), len(right)*len(models)
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
			s0, s1 := out[o:o+w], out[side+o:side+o+w]
			for ri, nr := range right {
				y := float64(nr)
				ta, tb := ua+a[2]*y, ub+b[2]*y
				r0, r1 := s0[ri*k+lo:], s1[ri*k+lo:]
				r0[d] = clampCost(tb + bj1)
				r0[0] = clampCost(ta + aj1)
				r1[d] = clampCost(tb + bj0)
				r1[0] = clampCost(ta + aj0)
			}
		}
	}
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
// sum is Predict's first two steps. Both linear kernels add the node
// and join terms to it in Predict's order — no fused multiply-add, no
// other reassociation, and the join term is multiplied even when it is
// 0, as Predict does.
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
	var costs moo.CostMatrix
	var err error
	if ps.linear != nil {
		costs, err = ps.walk(ctx)
	} else {
		costs, err = ps.estimate(ctx, plans)
	}
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
