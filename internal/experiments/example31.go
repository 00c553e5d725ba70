package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// Example31Options tunes the plan-space estimation-throughput study.
type Example31Options struct {
	// Plans is how many equivalent QEPs to estimate (default 2000; the
	// paper's Example 3.1 counts 18,200 for a 70-vCPU/260-GB pool).
	Plans int
	Seed  int64
}

// Example31Result quantifies the paper's Example 3.1 argument: with
// thousands of equivalent QEPs per query, the per-plan estimation cost
// of the Modelling module dominates, so DREAM's small training window
// matters — and, in this implementation, so does reusing the
// plan-independent window fit across the whole plan space.
type Example31Result struct {
	PaperPlanCount int // 70 vCPU × 260 GB = 18,200
	PlansEstimated int
	// DreamNS times DREAM with the model cache disabled (one window
	// search per plan — the paper's cost model); DreamCachedNS times
	// the production pipeline (one search per history version).
	DreamNS, DreamCachedNS, BMLNS int64 // total estimation wall time
}

// RunExample31 measures per-plan estimation cost of DREAM (small
// dynamic window) against the unbounded-history BML baseline over a
// large set of equivalent plans.
func RunExample31(opts Example31Options) (*Example31Result, *Table, error) {
	if opts.Plans <= 0 {
		opts.Plans = 2000
	}
	h, err := workload.NewHarness(opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	models, err := workload.PaperModels(opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	// Build a history with the default protocol, then time estimation
	// sweeps over the enumerated plan space.
	evalRes, err := h.Run(workload.EvalConfig{
		Query: tpch.QueryQ12, SF: 0.1, Seed: opts.Seed,
		HistorySize: 80, TestQueries: 20,
	}, models)
	if err != nil {
		return nil, nil, err
	}
	history := evalRes.History.Snapshot()

	exec, err := federation.NewScaledExecutor(h.Fed, h.Cal, 0.1)
	if err != nil {
		return nil, nil, err
	}
	plans, err := h.Fed.EnumeratePlans(tpch.QueryQ12, []int{1, 2, 3, 4, 6, 8, 10, 12, 14, 16})
	if err != nil {
		return nil, nil, err
	}
	features := make([][]float64, 0, opts.Plans)
	for i := 0; i < opts.Plans; i++ {
		x, err := exec.Features(plans[i%len(plans)])
		if err != nil {
			return nil, nil, err
		}
		features = append(features, x)
	}

	// CacheSize -1: this study measures Algorithm 1's per-plan cost, so
	// every estimate must pay its own window search.
	dream, err := ires.NewDREAMModel(core.Config{MMax: ires.MMax, CacheSize: -1})
	if err != nil {
		return nil, nil, err
	}
	dreamCached, err := ires.NewDREAMModel(core.Config{MMax: ires.MMax})
	if err != nil {
		return nil, nil, err
	}
	bml := &ires.BMLModel{WindowMultiple: 0, Seed: opts.Seed}

	res := &Example31Result{PaperPlanCount: 70 * 260, PlansEstimated: len(features)}
	start := time.Now()
	for _, x := range features {
		if _, err := dream.EstimateSnapshot(history, x); err != nil {
			return nil, nil, err
		}
	}
	res.DreamNS = time.Since(start).Nanoseconds()
	start = time.Now()
	for _, x := range features {
		if _, err := dreamCached.EstimateSnapshot(history, x); err != nil {
			return nil, nil, err
		}
	}
	res.DreamCachedNS = time.Since(start).Nanoseconds()
	start = time.Now()
	for _, x := range features {
		if _, err := bml.EstimateSnapshot(history, x); err != nil {
			return nil, nil, err
		}
	}
	res.BMLNS = time.Since(start).Nanoseconds()

	perPlan := func(total int64) string {
		return fmt.Sprintf("%.1f µs", float64(total)/1e3/float64(res.PlansEstimated))
	}
	extrapolate := func(total int64) string {
		return fmt.Sprintf("%.2f s", float64(total)/1e9/float64(res.PlansEstimated)*float64(res.PaperPlanCount))
	}
	t := &Table{
		Title:  "Example 3.1: estimating equivalent QEPs of one query (70 vCPU × 260 GB ⇒ 18,200 QEPs).",
		Header: []string{"Model", "Plans estimated", "Per-plan cost", "Extrapolated to 18,200 QEPs"},
		Rows: [][]string{
			{"DREAM (fit per plan)", fmt.Sprintf("%d", res.PlansEstimated), perPlan(res.DreamNS), extrapolate(res.DreamNS)},
			{"DREAM (cached fit)", fmt.Sprintf("%d", res.PlansEstimated), perPlan(res.DreamCachedNS), extrapolate(res.DreamCachedNS)},
			{"BML (full history)", fmt.Sprintf("%d", res.PlansEstimated), perPlan(res.BMLNS), extrapolate(res.BMLNS)},
		},
		Notes: []string{
			fmt.Sprintf("history length %d; DREAM trains on a window near N = %d",
				history.Len(), federation.FeatureDim+2),
			"cached fit: one window search per history version, shared by every plan of the space",
		},
	}
	return res, t, nil
}
