package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/moo"
	"repro/internal/tpch"
)

// stack is one bootstrapped scheduler over a scaled executor and DREAM,
// with the pieces the GA scores plans through: the query's lattice, the
// executor and the model.
type stack struct {
	sched *ires.Scheduler
	exec  federation.Executor
	model ires.CostModel
	query tpch.QueryID
	lat   *federation.PlanLattice
}

// newStack builds the topology at seed and calibrates it, assembles the
// paper's DREAM scheduler over it (scale 0.1, Mmax = ires.MMax, the
// model cache on unless cacheSize is negative, and the node menu) and
// bootstraps q with runs executions.
func newStack(topology func(seed int64) (*federation.Federation, error), seed int64, choices []int, cacheSize int, q tpch.QueryID, runs int) (*stack, error) {
	fed, err := topology(seed)
	if err != nil {
		return nil, err
	}
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, seed)
	if err != nil {
		return nil, err
	}
	exec, err := federation.NewScaledExecutor(fed, cal, 0.1)
	if err != nil {
		return nil, err
	}
	model, err := ires.NewDREAMModel(core.Config{MMax: ires.MMax, CacheSize: cacheSize})
	if err != nil {
		return nil, err
	}
	sched, err := ires.NewSchedulerWithConfig(fed, exec, model, ires.SchedulerConfig{NodeChoices: choices, Seed: seed})
	if err != nil {
		return nil, err
	}
	lat, err := fed.PlanLattice(q, choices)
	if err != nil {
		return nil, err
	}
	if err := sched.Bootstrap(q, runs); err != nil {
		return nil, err
	}
	return &stack{sched: sched, exec: exec, model: model, query: q, lat: lat}, nil
}

// planProblem is the genetic-algorithm path of the paper's Figure 3,
// the baseline the scheduler's exact sweep is measured against. It
// embeds its stack's lattice into a continuous box for NSGA-II: x =
// (joinAtLeft?, left, right) ∈ [0,1]³, decoded by thresholding and by
// rounding into the lattice's axes, so every decoded plan is a lattice
// plan. A plan is scored once: the executor's features, then the
// model's estimate against one history snapshot.
type planProblem struct {
	*stack
	snap *core.Snapshot

	// cache holds every scored plan's cost vector; its size is the
	// number of model evaluations (the expensive step).
	cache map[federation.Plan][]float64
	// err is the first scoring failure.
	err error
}

// Bounds implements moo.Problem.
func (p *planProblem) Bounds() (lo, hi []float64) {
	return []float64{0, 0, 0}, []float64{1, 1, 1}
}

// decode maps a decision vector to the lattice plan it stands for.
func (p *planProblem) decode(x []float64) federation.Plan {
	left, right := p.lat.Axes()
	pick := func(v float64, n int) int { return min(int(v*float64(n)), n-1) }
	side := 1
	if x[0] >= 0.5 {
		side = 0 // join at left
	}
	return p.lat.At(p.lat.Index(side, pick(x[1], len(left)), pick(x[2], len(right))))
}

// Evaluate implements moo.Problem. A plan that cannot be scored gets an
// infinite cost vector (and is not retried); the first such error fails
// the whole run.
func (p *planProblem) Evaluate(x []float64) []float64 {
	plan := p.decode(x)
	if c, ok := p.cache[plan]; ok {
		return c
	}
	features, err := p.exec.Features(plan)
	var c []float64
	if err == nil {
		c, err = p.model.EstimateSnapshot(p.snap, features)
	}
	if err != nil {
		if p.err == nil {
			p.err = fmt.Errorf("experiments: scoring %v: %w", plan, err)
		}
		c = []float64{math.Inf(1), math.Inf(1)}
	}
	p.cache[plan] = c
	return c
}

// optimizeGA runs NSGA-II once over st's lattice against the current
// history snapshot. It returns the deduplicated front as a sweep built
// by hand — every plan on its front — so a policy selects in it through
// Sweep.Select, as in the scheduler's own sweep, and the number of
// distinct plans it scored.
func optimizeGA(st *stack, cfg moo.NSGAIIConfig) (*ires.Sweep, int, error) {
	h := st.sched.History(st.query)
	if h == nil || h.Len() == 0 {
		return nil, 0, fmt.Errorf("%w: %v", ires.ErrNoHistory, st.query)
	}
	prob := &planProblem{stack: st, snap: h.Snapshot(), cache: make(map[federation.Plan][]float64)}
	res, err := moo.NSGAII(prob, cfg)
	if err == nil {
		err = prob.err
	}
	if err != nil {
		return nil, 0, err
	}
	sw := &ires.Sweep{Query: st.query}
	var rows [][]float64
	for _, ind := range res.Front {
		plan := prob.decode(ind.X)
		if slices.Contains(sw.Plans, plan) {
			continue
		}
		sw.FrontIdx = append(sw.FrontIdx, len(sw.Plans))
		sw.Plans = append(sw.Plans, plan)
		rows = append(rows, prob.cache[plan])
	}
	if sw.Costs, err = moo.NewCostMatrix(rows); err != nil {
		return nil, 0, err
	}
	sw.FrontCosts, sw.Normalized = sw.Costs, moo.NormalizeCosts(nil, sw.Costs)
	return sw, len(prob.cache), nil
}
