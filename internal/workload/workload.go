// Package workload implements the paper's evaluation protocol: generate
// a history of federated query executions under drifting cloud load,
// then measure each cost model's Mean Relative Error (eq. 15) on a
// stream of test queries, with every model reading the *same* history
// and being scored against the *same* measured outcomes.
//
// One realistic twist is built in: the simulated database grows/shrinks
// slightly between executions (medical data accumulates), so the size
// features of the paper's Example 2.1 carry signal rather than being
// constant within an experiment.
package workload

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/stats"
	"repro/internal/tpch"
)

// ErrNoModels is returned when an evaluation is requested without models.
var ErrNoModels = errors.New("workload: no models to evaluate")

// ModelSpec names one cost model under evaluation.
type ModelSpec struct {
	Name  string
	Model ires.CostModel
}

// EvalConfig parameterizes one evaluation run.
type EvalConfig struct {
	Query tpch.QueryID
	// SF is the nominal data scale (0.1 ≈ 100 MiB, 1 ≈ 1 GiB); each
	// execution runs at SF ± sfJitter.
	SF float64
	// HistorySize is the number of seed executions (default 60).
	HistorySize int
	// TestQueries is the number of scored predictions (default 40).
	TestQueries int
	// RecordBreakdown records per-operator timings alongside the total
	// costs (federation.BreakdownMetrics instead of federation.Metrics),
	// enabling operator-level models such as ires.CompositeDREAMModel.
	// The scored metrics stay (time, money): every model's Estimate
	// must return a vector whose first two entries are those.
	RecordBreakdown bool
	// Seed drives plan draws and size jitter.
	Seed int64
}

// The protocol's fixed shape.
const (
	// sfJitter is the relative spread of per-execution data sizes
	// around SF (±30%), modelling medical data that accumulates between
	// runs.
	sfJitter = 0.3
	// recurringPlans is the size of the recurring menu of plan
	// configurations, drawn once per run. This mirrors the paper's
	// evaluation: the same four queries are executed over and over on
	// one deployment, so history and test plans come from the same
	// small configuration set and the estimation signal is data size
	// and load drift, not extrapolation across cluster shapes.
	recurringPlans = 3
)

// nodeChoices is the cluster-size menu. The paper's evaluation cluster
// was a fixed 3-node private cloud: its history varies data sizes over
// a narrow menu of cluster shapes. A wide node range ({1..16}) turns
// cost into a strongly nonlinear function of the node features, which
// no MLR window — DREAM's or the baselines' — can extrapolate; the
// plan-search experiments (Figure 3 / Example 3.1) are where the full
// configuration space is exercised.
var nodeChoices = []int{1, 2, 4}

func (c *EvalConfig) setDefaults() {
	if c.HistorySize == 0 {
		c.HistorySize = 60
	}
	if c.TestQueries == 0 {
		c.TestQueries = 40
	}
}

// ModelScore is one model's error profile over the test stream.
type ModelScore struct {
	// TimeMRE and MoneyMRE are the Mean Relative Errors on the two
	// metrics (eq. 15); TimeMRE is what the paper's Tables 3/4 report.
	TimeMRE, MoneyMRE float64
	// Failures counts test queries the model could not score.
	Failures int
}

// EvalResult is the outcome of one evaluation run.
type EvalResult struct {
	Query   tpch.QueryID
	SF      float64
	Scores  map[string]ModelScore
	History *core.History // final history, for inspection
}

// Harness owns the federation, calibration and randomness of an
// evaluation campaign.
type Harness struct {
	Fed *federation.Federation
	Cal *federation.Calibration
}

// NewHarness builds a harness over a default two-site topology,
// calibrating the engine statistics once at a small scale factor.
func NewHarness(seed int64) (*Harness, error) {
	fed, err := federation.DefaultTopology(seed)
	if err != nil {
		return nil, err
	}
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, seed)
	if err != nil {
		return nil, err
	}
	return &Harness{Fed: fed, Cal: cal}, nil
}

// Run executes the evaluation protocol for one query and scores every
// model on the identical test stream.
func (h *Harness) Run(cfg EvalConfig, models []ModelSpec) (*EvalResult, error) {
	if len(models) == 0 {
		return nil, ErrNoModels
	}
	if cfg.SF <= 0 {
		return nil, fmt.Errorf("workload: non-positive SF %v", cfg.SF)
	}
	cfg.setDefaults()
	rng := stats.NewRNG(cfg.Seed)

	plans, err := h.Fed.EnumeratePlans(cfg.Query, nodeChoices)
	if err != nil {
		return nil, err
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("workload: query %v has no plans", cfg.Query)
	}
	if recurringPlans < len(plans) {
		menu := make([]federation.Plan, 0, recurringPlans)
		for _, idx := range rng.Perm(len(plans))[:recurringPlans] {
			menu = append(menu, plans[idx])
		}
		plans = menu
	}

	metricSet := federation.Metrics
	if cfg.RecordBreakdown {
		metricSet = federation.BreakdownMetrics
	}
	history, err := core.NewHistory(federation.FeatureDim, metricSet...)
	if err != nil {
		return nil, err
	}
	type tally struct {
		timeActual, timePred   []float64
		moneyActual, moneyPred []float64
		failures               int
	}
	tallies := make(map[string]*tally, len(models))
	for _, m := range models {
		tallies[m.Name] = &tally{}
	}
	// The seed phase executes HistorySize plans, each at a jittered
	// size. In the test phase after it, every model predicts the same
	// plan from the same history before the measured outcome is
	// revealed and appended.
	for i := 0; i < cfg.HistorySize+cfg.TestQueries; i++ {
		p := plans[rng.Intn(len(plans))]
		exec, err := federation.NewScaledExecutor(h.Fed, h.Cal, cfg.SF*rng.Uniform(1-sfJitter, 1+sfJitter))
		if err != nil {
			return nil, err
		}
		x, err := exec.Features(p)
		if err != nil {
			return nil, err
		}
		var preds map[string][]float64
		if i >= cfg.HistorySize {
			preds = make(map[string][]float64, len(models))
			snap := history.Snapshot()
			for _, m := range models {
				c, err := m.Model.EstimateSnapshot(snap, x)
				if err != nil {
					tallies[m.Name].failures++
					continue
				}
				preds[m.Name] = c
			}
		}
		out, err := exec.Execute(p)
		if err != nil {
			return nil, err
		}
		actual := out.Costs()
		if cfg.RecordBreakdown {
			actual = out.BreakdownCosts()
		}
		for name, c := range preds {
			ta := tallies[name]
			ta.timeActual = append(ta.timeActual, actual[0])
			ta.timePred = append(ta.timePred, c[0])
			ta.moneyActual = append(ta.moneyActual, actual[1])
			ta.moneyPred = append(ta.moneyPred, c[1])
		}
		if err := history.Append(core.Observation{X: x, Costs: actual}); err != nil {
			return nil, err
		}
	}

	res := &EvalResult{
		Query:   cfg.Query,
		SF:      cfg.SF,
		Scores:  make(map[string]ModelScore, len(models)),
		History: history,
	}
	for name, ta := range tallies {
		score := ModelScore{Failures: ta.failures}
		if len(ta.timeActual) > 0 {
			if mre, err := stats.MRE(ta.timeActual, ta.timePred); err == nil {
				score.TimeMRE = mre
			}
			if mre, err := stats.MRE(ta.moneyActual, ta.moneyPred); err == nil {
				score.MoneyMRE = mre
			}
		}
		res.Scores[name] = score
	}
	return res, nil
}

// PaperModels returns the five Modelling configurations of the paper's
// Tables 3 and 4: BML over windows N, 2N, 3N and unbounded, plus DREAM.
// DREAM's window is capped at Mmax = 3·(L+2), following the paper's
// guidance that once R²require = 0.8 is the target, windows much beyond
// N stop paying for themselves ("M > 6 is not recommended" in their
// L = 2 example) — without a cap, a post-jump window can grow into the
// expired region it is meant to avoid.
func PaperModels(seed int64) ([]ModelSpec, error) {
	dream, err := ires.NewDREAMModel(core.Config{
		RequiredR2: core.DefaultRequiredR2,
		MMax:       ires.MMax,
	})
	if err != nil {
		return nil, err
	}
	return []ModelSpec{
		{Name: "BMLN", Model: &ires.BMLModel{WindowMultiple: 1, Seed: seed}},
		{Name: "BML2N", Model: &ires.BMLModel{WindowMultiple: 2, Seed: seed}},
		{Name: "BML3N", Model: &ires.BMLModel{WindowMultiple: 3, Seed: seed}},
		{Name: "BML", Model: &ires.BMLModel{WindowMultiple: 0, Seed: seed}},
		{Name: "DREAM", Model: dream},
	}, nil
}
