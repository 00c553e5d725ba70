package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/moo"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// Ablation runners for the design choices DESIGN.md calls out. Each
// returns a Table plus the raw numbers so benches and tests can assert
// on them.

// AblationOptions is shared by the ablation studies.
type AblationOptions struct {
	Reps int
	Seed int64
}

func (o *AblationOptions) setDefaults() {
	if o.Reps <= 0 {
		o.Reps = 3
	}
}

// runDREAMVariant scores one DREAM configuration with the standard
// workload protocol, averaged over reps, and reports mean MRE plus the
// mean converged window size. wrap, when non-nil, decorates each rep's
// DREAM model (given the rep's seed) before it is scored.
func runDREAMVariant(cfg core.Config, opts AblationOptions, q tpch.QueryID, wrap func(*ires.DREAMModel, int64) ires.CostModel) (mre float64, meanWindow float64, refits float64, err error) {
	opts.setDefaults()
	var mreSum, windowSum, refitSum float64
	var windowN int
	for rep := 0; rep < opts.Reps; rep++ {
		seed := opts.Seed + int64(rep)*977
		h, err := workload.NewHarness(seed)
		if err != nil {
			return 0, 0, 0, err
		}
		dream, err := ires.NewDREAMModel(cfg)
		if err != nil {
			return 0, 0, 0, err
		}
		var model ires.CostModel = dream
		if wrap != nil {
			model = wrap(dream, seed)
		}
		res, err := h.Run(workload.EvalConfig{
			Query: q, SF: 0.1, Seed: seed,
		}, []workload.ModelSpec{{Name: "variant", Model: model}})
		if err != nil {
			return 0, 0, 0, err
		}
		mreSum += res.Scores["variant"].TimeMRE

		// Probe converged window sizes on the final history.
		est, err := core.NewEstimator(cfg)
		if err != nil {
			return 0, 0, 0, err
		}
		hist := res.History
		for i := 0; i < 10; i++ {
			obs := hist.At(hist.Len() - 1 - i)
			e, err := est.EstimateCostValue(hist, obs.X)
			if err != nil {
				continue
			}
			windowSum += float64(e.WindowSize)
			refitSum += float64(e.Refits)
			windowN++
		}
	}
	if windowN == 0 {
		return 0, 0, 0, fmt.Errorf("experiments: no window probes succeeded")
	}
	return mreSum / float64(opts.Reps), windowSum / float64(windowN), refitSum / float64(windowN), nil
}

// AblationWindowGrowth contrasts the paper's grow-by-one schedule with
// doubling.
func AblationWindowGrowth(opts AblationOptions) (*Table, error) {
	t := &Table{
		Title:  "Ablation: DREAM window growth policy (Q12, 100 MiB).",
		Header: []string{"Growth", "Time MRE", "Mean window", "Mean refits"},
	}
	mmax := 3 * (federation.FeatureDim + 2)
	for _, tc := range []struct {
		name   string
		growth core.GrowthPolicy
	}{
		{"grow-by-one (paper)", core.GrowByOne},
		{"doubling", core.Doubling},
	} {
		mre, win, refits, err := runDREAMVariant(core.Config{Growth: tc.growth, MMax: mmax}, opts, tpch.QueryQ12, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			tc.name,
			fmt.Sprintf("%.3f", mre),
			fmt.Sprintf("%.1f", win),
			fmt.Sprintf("%.1f", refits),
		})
	}
	return t, nil
}

// AblationR2Threshold sweeps the R²require knob (paper default 0.8).
func AblationR2Threshold(opts AblationOptions) (*Table, error) {
	t := &Table{
		Title:  "Ablation: DREAM R²require threshold (Q12, 100 MiB).",
		Header: []string{"R²require", "Time MRE", "Mean window"},
	}
	mmax := 3 * (federation.FeatureDim + 2)
	for _, r2 := range []float64{0.6, 0.7, 0.8, 0.9, 0.95} {
		mre, win, _, err := runDREAMVariant(core.Config{RequiredR2: r2, MMax: mmax}, opts, tpch.QueryQ12, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", r2),
			fmt.Sprintf("%.3f", mre),
			fmt.Sprintf("%.1f", win),
		})
	}
	return t, nil
}

// shuffledHistoryModel is the recency ablation's uniform-sample arm:
// the ordinary DREAM estimator run against a seeded shuffle of the
// history's observations — the most recent m of a shuffled history is
// a uniform sample of m, so the window search is unchanged and only
// recency is taken away.
type shuffledHistoryModel struct {
	dream *ires.DREAMModel
	seed  int64
}

func (m shuffledHistoryModel) Name() string { return "dream_uniform" }

func (m shuffledHistoryModel) EstimateSnapshot(s *core.Snapshot, x []float64) ([]float64, error) {
	shuffled, err := core.NewHistory(s.Dim(), s.Metrics()...)
	if err != nil {
		return nil, err
	}
	// One permutation per history version: every plan scored against
	// the same history sees the same sample.
	for _, i := range stats.NewRNG(m.seed ^ int64(s.Version())).Perm(s.Len()) {
		if err := shuffled.Append(s.At(i)); err != nil {
			return nil, err
		}
	}
	return m.dream.EstimateSnapshot(shuffled.Snapshot(), x)
}

// AblationRecency contrasts DREAM's most-recent window with a uniform
// sample over all history — isolating how much of DREAM's accuracy
// comes from recency rather than window size.
func AblationRecency(opts AblationOptions) (*Table, error) {
	t := &Table{
		Title:  "Ablation: DREAM window selection (Q12, 100 MiB).",
		Header: []string{"Window policy", "Time MRE"},
	}
	mmax := 3 * (federation.FeatureDim + 2)
	for _, tc := range []struct {
		name string
		cfg  core.Config
		wrap func(*ires.DREAMModel, int64) ires.CostModel
	}{
		{"most recent (paper)", core.Config{MMax: mmax}, nil},
		// Every call builds a fresh shuffled history, so a fit cached
		// under its identity could never be hit.
		{"uniform sample", core.Config{MMax: mmax, CacheSize: -1}, func(d *ires.DREAMModel, seed int64) ires.CostModel {
			return shuffledHistoryModel{dream: d, seed: seed}
		}},
	} {
		mre, _, _, err := runDREAMVariant(tc.cfg, opts, tpch.QueryQ12, tc.wrap)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{tc.name, fmt.Sprintf("%.3f", mre)})
	}
	return t, nil
}

// AblationComposite contrasts the monolithic DREAM model (one
// regression over end-to-end plan time) with the operator-level
// composite model (per-piece regressions reassembled through the plan's
// max/sum structure, the way IReS models per operator).
func AblationComposite(opts AblationOptions) (*Table, error) {
	opts.setDefaults()
	t := &Table{
		Title:  "Ablation: monolithic vs operator-level DREAM (Q12, 100 MiB).",
		Header: []string{"Model", "Time MRE"},
		Notes: []string{
			"composite predicts each operator separately and reassembles time = max(preps) + ship + final",
		},
	}
	cfg := core.Config{MMax: 3 * (federation.FeatureDim + 2)}
	sums := map[string]float64{}
	for rep := 0; rep < opts.Reps; rep++ {
		seed := opts.Seed + int64(rep)*601
		h, err := workload.NewHarness(seed)
		if err != nil {
			return nil, err
		}
		mono, err := ires.NewDREAMModel(cfg)
		if err != nil {
			return nil, err
		}
		comp, err := ires.NewCompositeDREAMModel(cfg)
		if err != nil {
			return nil, err
		}
		res, err := h.Run(workload.EvalConfig{
			Query: tpch.QueryQ12, SF: 0.1, Seed: seed,
			RecordBreakdown: true,
		}, []workload.ModelSpec{
			{Name: "monolithic", Model: mono},
			{Name: "composite", Model: comp},
		})
		if err != nil {
			return nil, err
		}
		for name, s := range res.Scores {
			sums[name] += s.TimeMRE
		}
	}
	for _, name := range []string{"monolithic", "composite"} {
		t.Rows = append(t.Rows, []string{name, fmt.Sprintf("%.3f", sums[name]/float64(opts.Reps))})
	}
	return t, nil
}

// AblationOptimizer compares NSGA-II, NSGA-G and exhaustive Pareto
// enumeration on the same estimated plan space: front quality (best
// achievable weighted score) and wall time.
func AblationOptimizer(opts AblationOptions) (*Table, error) {
	opts.setDefaults()
	fed, err := federation.DefaultTopology(opts.Seed)
	if err != nil {
		return nil, err
	}
	cal, err := federation.Calibrate(fed, 0.004, opts.Seed)
	if err != nil {
		return nil, err
	}
	exec, err := federation.NewScaledExecutor(fed, cal, 0.1)
	if err != nil {
		return nil, err
	}
	// CacheSize -1: the wall-time contrast below is about estimation
	// cost, so each path must pay its own window searches.
	dream, err := ires.NewDREAMModel(core.Config{MMax: 3 * (federation.FeatureDim + 2), CacheSize: -1})
	if err != nil {
		return nil, err
	}
	sched, err := ires.NewScheduler(fed, exec, dream, []int{1, 2, 4, 8, 16}, opts.Seed)
	if err != nil {
		return nil, err
	}
	if err := sched.Bootstrap(tpch.QueryQ12, 40); err != nil {
		return nil, err
	}
	pol := ires.Policy{Weights: []float64{1, 1}}

	t := &Table{
		Title:  "Ablation: Multi-Objective Optimizer choice (Q12 plan space).",
		Header: []string{"Optimizer", "Front size", "Wall time"},
	}

	gaCfg := moo.NSGAIIConfig{PopSize: 40, Generations: 20, Seed: opts.Seed}

	start := time.Now()
	ga, err := sched.OptimizeGA(tpch.QueryQ12, gaCfg)
	if err != nil {
		return nil, err
	}
	gaTime := time.Since(start)
	if _, err := ga.Select(pol); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"NSGA-II", fmt.Sprintf("%d", len(ga.Plans)), fmt.Sprintf("%.1f ms", float64(gaTime.Microseconds())/1000),
	})

	// The exhaustive baseline: enumerate, estimate every plan, reduce to
	// the Pareto set.
	start = time.Now()
	plans, err := fed.EnumeratePlans(tpch.QueryQ12, sched.NodeChoices)
	if err != nil {
		return nil, err
	}
	costs := make([][]float64, len(plans))
	snap := sched.History(tpch.QueryQ12).Snapshot()
	for i, p := range plans {
		x, err := exec.Features(p)
		if err != nil {
			return nil, err
		}
		c, err := dream.EstimateSnapshot(snap, x)
		if err != nil {
			return nil, err
		}
		costs[i] = c
	}
	matrix, err := moo.NewCostMatrix(costs)
	if err != nil {
		return nil, err
	}
	front, err := moo.ParetoFront(matrix)
	if err != nil {
		return nil, err
	}
	exhaustiveTime := time.Since(start)
	t.Rows = append(t.Rows, []string{
		"exhaustive Pareto", fmt.Sprintf("%d", len(front)), fmt.Sprintf("%.1f ms", float64(exhaustiveTime.Microseconds())/1000),
	})
	t.Notes = append(t.Notes,
		"exhaustive enumeration is feasible at this plan-space size; the GA pays off when the space explodes (Example 3.1)")
	return t, nil
}
