package ires

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/federation"
	"repro/internal/moo"
	"repro/internal/tpch"
)

// This file implements the two Multi-Objective Query Processing
// approaches the paper contrasts in Figure 3:
//
//   - the genetic-algorithm path: NSGA-II searches the plan space,
//     produces a Pareto plan set once, and the user policy only picks
//     within it (cheap to re-run when weights change);
//   - the Weighted Sum Model path: every plan is scalarized directly
//     with the current weights, and any weight change restarts the
//     whole optimization.

// planProblem embeds the discrete QEP space into a continuous box for
// NSGA-II: x = (joinAtLeft?, leftChoice, rightChoice) ∈ [0,1]³, decoded
// by thresholding and index rounding. Objective values come from the
// Modelling module; each decoded plan is estimated exactly once.
type planProblem struct {
	// round scores plans against the run's one history snapshot.
	round   *planSweeper
	query   tpch.QueryID
	choices []int
	// maxLeft/maxRight cap the decoded node counts at the owning
	// sites' capacities, so the front only contains executable plans.
	maxLeft, maxRight int

	// cache avoids re-estimating the same decoded plan; its size is the
	// number of Modelling evaluations (the expensive step).
	cache map[federation.Plan][]float64
	// err is the first estimation failure.
	err error
}

// Bounds implements moo.Problem.
func (p *planProblem) Bounds() (lo, hi []float64) {
	return []float64{0, 0, 0}, []float64{1, 1, 1}
}

// decode maps a continuous decision vector to a concrete plan.
func (p *planProblem) decode(x []float64) federation.Plan {
	pick := func(v float64, cap int) int {
		i := int(v * float64(len(p.choices)))
		if i >= len(p.choices) {
			i = len(p.choices) - 1
		}
		n := p.choices[i]
		if cap > 0 && n > cap {
			n = cap
		}
		return n
	}
	return federation.Plan{
		Query:      p.query,
		JoinAtLeft: x[0] >= 0.5,
		NodesLeft:  pick(x[1], p.maxLeft),
		NodesRight: pick(x[2], p.maxRight),
	}
}

// Evaluate implements moo.Problem. A plan the model cannot score gets
// an infinite cost vector (and is not retried); the first such error
// fails the whole run.
func (p *planProblem) Evaluate(x []float64) []float64 {
	plan := p.decode(x)
	if c, ok := p.cache[plan]; ok {
		return c
	}
	var c []float64
	if costs, err := p.round.estimate(context.Background(), []federation.Plan{plan}); err == nil {
		c = slices.Clone(costs.Row(0)) // the round's next estimate reuses the matrix
	} else {
		if p.err == nil {
			p.err = err
		}
		c = []float64{math.Inf(1), math.Inf(1)}
	}
	p.cache[plan] = c
	return c
}

// GAResult is the reusable output of the GA optimization path.
type GAResult struct {
	// Plans and Costs are the Pareto plan set with the model's cost
	// vectors, deduplicated.
	Plans []federation.Plan
	Costs [][]float64
	// ModelEvaluations counts distinct plan estimations performed.
	ModelEvaluations int
}

// Select applies a user policy to the precomputed Pareto set — the
// cheap per-policy step of the GA path (Figure 3, left). The policy's
// Strategy field picks between Algorithm 2's weighted sum, knee-point
// and lexicographic selection.
func (r *GAResult) Select(pol Policy) (federation.Plan, error) {
	if len(r.Plans) == 0 {
		return federation.Plan{}, moo.ErrNoPlans
	}
	raw, err := moo.NewCostMatrix(r.Costs)
	if err != nil {
		return federation.Plan{}, err
	}
	idx, err := selectFromParetoSet(raw, moo.NormalizeCosts(nil, raw), pol)
	if err != nil {
		return federation.Plan{}, err
	}
	return r.Plans[idx], nil
}

// OptimizeGA runs the NSGA-II path once for query q, returning the
// Pareto plan set for later policy selections.
func (s *Scheduler) OptimizeGA(q tpch.QueryID, cfg moo.NSGAIIConfig) (*GAResult, error) {
	h, err := s.OpenHistory(q)
	if err != nil {
		return nil, err
	}
	if h.Len() == 0 {
		return nil, fmt.Errorf("%w: %v", ErrNoHistory, q)
	}
	leftTable, rightTable := q.Tables()
	leftSite, err := s.fed.SiteOf(leftTable)
	if err != nil {
		return nil, err
	}
	rightSite, err := s.fed.SiteOf(rightTable)
	if err != nil {
		return nil, err
	}
	prob := &planProblem{
		round:    s.sweeper(q, h, nil, new(sweepBuf)),
		query:    q,
		choices:  s.nodeChoices,
		maxLeft:  leftSite.MaxNodes,
		maxRight: rightSite.MaxNodes,
		cache:    make(map[federation.Plan][]float64),
	}
	res, err := moo.NSGAII(prob, cfg)
	if err != nil {
		return nil, err
	}
	if prob.err != nil {
		return nil, prob.err
	}
	out := &GAResult{ModelEvaluations: len(prob.cache)}
	seen := make(map[federation.Plan]bool)
	for _, ind := range res.Front {
		plan := prob.decode(ind.X)
		if seen[plan] {
			continue
		}
		seen[plan] = true
		out.Plans = append(out.Plans, plan)
		out.Costs = append(out.Costs, prob.cache[plan])
	}
	return out, nil
}

// WSMResult reports one run of the Weighted Sum Model path.
type WSMResult struct {
	Plan federation.Plan
	// Costs is the model's cost vector of Plan.
	Costs []float64
	// ModelEvaluations counts plan estimations; the WSM path pays this
	// again for every policy change.
	ModelEvaluations int
}

// OptimizeWSM runs the weighted-sum path (Figure 3, right): estimate
// every enumerated plan, scalarize with the current weights, return the
// argmin. There is no reusable artifact — a changed policy reruns this.
func (s *Scheduler) OptimizeWSM(q tpch.QueryID, pol Policy) (*WSMResult, error) {
	h, err := s.OpenHistory(q)
	if err != nil {
		return nil, err
	}
	if h.Len() == 0 {
		return nil, fmt.Errorf("%w: %v", ErrNoHistory, q)
	}
	lat, err := s.lattice(q)
	if err != nil {
		return nil, err
	}
	plans := lat.Plans()
	if len(plans) == 0 {
		return nil, moo.ErrNoPlans
	}
	costs, err := s.sweeper(q, h, lat, new(sweepBuf)).sweep(context.Background())
	if err != nil {
		return nil, err
	}
	weights := pol.Weights
	if len(weights) == 0 {
		weights = []float64{1, 1}
	}
	idx, err := moo.ArgminWeightedSum(moo.NormalizeCosts(nil, costs), weights)
	if err != nil {
		return nil, err
	}
	return &WSMResult{Plan: plans[idx], Costs: costs.Row(idx), ModelEvaluations: len(plans)}, nil
}
