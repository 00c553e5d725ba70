package experiments

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/moo"
	"repro/internal/tpch"
)

// fig3Policies is how many times the user policy changes.
const fig3Policies = 5

// Fig3Result carries the numbers behind the Figure 3 comparison, one
// entry per lattice: the default one, then Example 3.1's 18,432 plans.
type Fig3Result struct {
	Policies int
	Lattices []Fig3Lattice
}

// Fig3Lattice is the Figure 3 comparison on one QEP lattice of Q12.
type Fig3Lattice struct {
	PlanSpace int
	// GA is NSGA-II's Pareto set and Exact the scheduler's sweep of the
	// whole lattice: the two sets a policy selects in. Covered counts
	// the plans of Exact's front that GA holds.
	GA, Exact *ires.Sweep
	Covered   int
	// The per-approach numbers, indexed GA, exact sweep, weighted sum:
	// the model evaluations paid across every policy, the wall time of
	// building the Pareto set once (none for the weighted sum) and of
	// every per-policy step, and how many policies' picks score within
	// 10% of the weighted sum's by the model's own estimates.
	Evaluations     [3]int
	BuildNS, StepNS [3]int64
	Agreement       [3]int
}

// defaultMenu is the scheduler's default cluster-size menu.
var defaultMenu = []int{1, 2, 4, 8, 16}

// RunFig3 contrasts the paper's Figure 3 paths across a sequence of
// user-policy changes: a Pareto set built once — by NSGA-II, or by the
// exact sweep the scheduler serves — with a per-policy Algorithm 2
// selection, versus a Weighted Sum Model optimization rerun for every
// policy. It measures them on the default lattice and at Example 3.1's
// scale (WideTopology and NodeRange(96): 18,432 plans). seed drives the
// federation and the workload.
func RunFig3(seed int64) (*Fig3Result, *Table, error) {
	res := &Fig3Result{Policies: fig3Policies}
	t := &Table{
		Title:  "Figure 3: MOQP approaches across policy changes (Q12, 100 MiB).",
		Header: []string{"Plans", "Approach", "Model evaluations", "Per-policy step", "Policy agreement", "Front coverage"},
		Notes:  []string{"front coverage: the share of the exact Pareto front an approach's front holds; the scheduler serves the exact sweep"},
	}
	wide := func(seed int64) (*federation.Federation, error) { return federation.WideTopology(seed, 96) }
	for _, space := range []struct {
		topology func(seed int64) (*federation.Federation, error)
		menu     []int
	}{{federation.DefaultTopology, defaultMenu}, {wide, federation.NodeRange(96)}} {
		st, err := newStack(space.topology, seed, space.menu, 0, tpch.QueryQ12, 40)
		if err != nil {
			return nil, nil, err
		}
		l, err := fig3On(st, seed)
		if err != nil {
			return nil, nil, err
		}
		res.Lattices = append(res.Lattices, *l)
		ms := func(ns int64) float64 { return float64(ns) / 1e6 }
		step := func(i int) float64 { return ms(l.StepNS[i]) / float64(res.Policies) }
		agreement := func(i int) string { return fmt.Sprintf("%d/%d within 10%%", l.Agreement[i], res.Policies) }
		plans, front := fmt.Sprint(l.PlanSpace), len(l.Exact.FrontIdx)
		t.Rows = append(t.Rows,
			[]string{plans, "NSGA-II + BestInPareto", fmt.Sprintf("%d (once, %.2f ms)", l.Evaluations[0], ms(l.BuildNS[0])),
				fmt.Sprintf("%.3f ms Pareto selection", step(0)), agreement(0),
				fmt.Sprintf("%.2f (%d of %d)", float64(l.Covered)/float64(front), l.Covered, front)},
			[]string{plans, "exact sweep + BestInPareto", fmt.Sprintf("%d (once, %.2f ms)", l.Evaluations[1], ms(l.BuildNS[1])),
				fmt.Sprintf("%.3f ms Pareto selection", step(1)), agreement(1), "1.00 (exact)"},
			[]string{plans, "Weighted Sum Model", fmt.Sprintf("%d (%d policies × full plan space)", l.Evaluations[2], res.Policies),
				fmt.Sprintf("%.3f ms full re-optimization", step(2)), "(reference)", "-"},
		)
	}
	return res, t, nil
}

// fig3On runs the three approaches on st's lattice.
func fig3On(st *stack, seed int64) (*Fig3Lattice, error) {
	l := &Fig3Lattice{PlanSpace: st.lat.Size()}
	start := time.Now()
	ga, evaluations, err := optimizeGA(st, moo.NSGAIIConfig{PopSize: 40, Generations: 25, Seed: seed})
	if err != nil {
		return nil, err
	}
	l.GA, l.Evaluations[0], l.BuildNS[0] = ga, evaluations, time.Since(start).Nanoseconds()
	// Exact is never released: it is part of the result.
	start = time.Now()
	if l.Exact, err = st.sched.PlanSweep(context.TODO(), st.query); err != nil {
		return nil, err
	}
	l.Evaluations[1], l.BuildNS[1] = len(l.Exact.Plans), time.Since(start).Nanoseconds()
	for _, i := range l.Exact.FrontIdx {
		if slices.Contains(l.GA.Plans, l.Exact.Plans[i]) {
			l.Covered++
		}
	}

	for k := 0; k < fig3Policies; k++ {
		w := float64(k+1) / float64(fig3Policies+1)
		pol := ires.Policy{Weights: []float64{w, 1 - w}}
		// The Weighted Sum Model (Figure 3, right) pays the whole lattice
		// again for every policy: sweep it, take the argmin of the
		// weighted sum over every plan's normalized costs.
		start := time.Now()
		sw, err := st.sched.PlanSweep(context.TODO(), st.query)
		if err != nil {
			return nil, err
		}
		idx, err := moo.ArgminWeightedSum(moo.NormalizeCosts(nil, sw.Costs), pol.Weights)
		if err != nil {
			return nil, err
		}
		// The weights passed ArgminWeightedSum's checks, so WeightedSum
		// cannot fail on them.
		wsm, _ := moo.WeightedSum(sw.Costs.Row(idx), pol.Weights)
		l.Evaluations[2] += len(sw.Plans)
		st.sched.ReleaseSweep(sw)
		l.StepNS[2] += time.Since(start).Nanoseconds()

		for i, sw := range []*ires.Sweep{l.GA, l.Exact} {
			start := time.Now()
			idx, err := sw.Select(pol)
			if err != nil {
				return nil, err
			}
			l.StepNS[i] += time.Since(start).Nanoseconds()
			score, _ := moo.WeightedSum(sw.Costs.Row(idx), pol.Weights)
			if lo, hi := min(score, wsm), max(score, wsm); hi == 0 || (hi-lo)/hi < 0.10 {
				l.Agreement[i]++
			}
		}
	}
	return l, nil
}
