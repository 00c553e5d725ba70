package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/cloud"
	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/tpch"
)

// This file wires the scenario engine into the evaluation harness: each
// scenario (arrival process × chaos profile) drives one online serving
// campaign, and the table reports how estimation (MRE) and decision
// quality degrade as the cloud misbehaves — the adversarial complement
// to the paper's steady-state Tables 3/4 protocol.

// ScenarioOptions tunes the scenario sweep.
type ScenarioOptions struct {
	// Seed derives every scenario's seed (default 42).
	Seed int64
	// Events per scenario (default 120).
	Events int
}

func (o *ScenarioOptions) setDefaults() {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Events <= 0 {
		o.Events = 120
	}
}

// scenarioQueries is the mix each scenario of the sweep draws from.
var scenarioQueries = []string{"Q12", "Q13"}

// DecisionPoint is the deterministic signature of one scheduling round
// — everything that is a pure function of (history, plan space), and
// nothing (like wall-clock) that is not. The seed-reproducibility tests
// compare these across runs byte for byte.
type DecisionPoint struct {
	Query      string
	Plan       string
	Estimated  []float64
	Measured   []float64
	ParetoSize int
}

// ScenarioResult is one row of the scenario table.
type ScenarioResult struct {
	Spec   scenario.Spec
	Events int
	// MRETime / MREMoney are the paper's eq. 15 mean relative error of
	// the chosen plan's predicted vs measured cost, per metric.
	MRETime, MREMoney float64
	// Regret is the mean post-hoc regret of the chosen plan: after the
	// measurement lands and the model refits, the whole plan space is
	// re-scored, every cost vector min-max normalized over the sweep,
	// and the chosen plan's normalized weighted score compared against
	// the best one. 0 means the choice is still optimal under the refit
	// model; the scale is weight-sum-bounded, so cells are comparable.
	// Steady-state scenarios should hug 0; chaos makes decisions that
	// age badly.
	Regret float64
	// P50TimeS / P99TimeS are percentiles of the measured execution
	// times — p99 is where outages and stragglers live.
	P50TimeS, P99TimeS float64
	// Faults counts the chaos windows actually injected.
	Faults cloud.FaultCounts
	// Decisions is the full decision sequence (reproducibility probe).
	Decisions []DecisionPoint
}

// scenarioStack builds one serving stack for a scenario, bootstrapped
// on the well-behaved cloud; chaos attaches only after bootstrap, so
// every campaign starts from an honestly trained model.
func scenarioStack(spec scenario.Spec, queries []string) (*ires.Scheduler, *federation.Federation, error) {
	fed, err := federation.DefaultTopology(spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	sched, err := ires.NewDREAMScheduler(fed, cal, 0.1, ires.SchedulerConfig{NodeChoices: []int{1, 2, 4}, Seed: spec.Seed})
	if err != nil {
		return nil, nil, err
	}
	for _, qs := range queries {
		q, err := tpch.ParseQueryID(qs)
		if err != nil {
			return nil, nil, err
		}
		if err := sched.Bootstrap(q, 20); err != nil {
			return nil, nil, err
		}
	}
	return sched, fed, nil
}

// RunScenario executes one scenario campaign and reports its row.
func RunScenario(spec scenario.Spec, queries []string) (*ScenarioResult, error) {
	profile, err := spec.Profile()
	if err != nil {
		return nil, err
	}
	if len(spec.Queries) == 0 {
		spec.Queries = queries
	}
	events, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	sched, fed, err := scenarioStack(spec, queries)
	if err != nil {
		return nil, err
	}
	chaos := scenario.AttachChaos(fed, profile, spec.Seed)
	defer scenario.DetachChaos(fed)

	ctx := context.Background()
	pol := ires.Policy{Weights: []float64{1, 1}}
	res := &ScenarioResult{Spec: spec, Events: len(events)}
	var estT, measT, estM, measM, times []float64
	var regretSum float64
	var prev time.Duration
	for _, ev := range events {
		// Long arrival gaps advance the cloud further between queries:
		// one extra load tick per 100ms of schedule gap (capped), so
		// burstiness and lulls actually reach the drift dynamics.
		gap := ev.Offset - prev
		prev = ev.Offset
		for i, n := 0, int(gap/(100*time.Millisecond)); i < n && i < 20; i++ {
			for _, site := range fed.Sites {
				site.Load.Tick()
			}
		}
		q, err := tpch.ParseQueryID(ev.Query)
		if err != nil {
			return nil, err
		}
		dec, err := sched.Submit(q, pol)
		if err != nil {
			return nil, err
		}
		estT = append(estT, dec.Estimated[0])
		measT = append(measT, dec.Outcome.TimeS)
		estM = append(estM, dec.Estimated[1])
		measM = append(measM, dec.Outcome.MoneyUSD)
		times = append(times, dec.Outcome.TimeS)
		res.Decisions = append(res.Decisions, DecisionPoint{
			Query:      ev.Query,
			Plan:       dec.Plan.String(),
			Estimated:  append([]float64(nil), dec.Estimated...),
			Measured:   []float64{dec.Outcome.TimeS, dec.Outcome.MoneyUSD},
			ParetoSize: dec.ParetoSize,
		})

		// Post-hoc regret: re-score the whole plan space with the model
		// as it stands *after* this measurement landed, and ask how far
		// the choice sits above the new best under the selection rule's
		// own normalized weighted score.
		sw, err := sched.PlanSweep(ctx, q)
		if err != nil {
			return nil, err
		}
		if r, ok := sweepRegret(sw, dec.Plan, pol.Weights); ok {
			regretSum += r
		}
		sched.ReleaseSweep(sw)
	}

	if res.MRETime, err = stats.MRE(measT, estT); err != nil {
		return nil, err
	}
	if res.MREMoney, err = stats.MRE(measM, estM); err != nil {
		return nil, err
	}
	res.Regret = regretSum / float64(len(events))
	qs, err := stats.Quantiles(times, 0.50, 0.99)
	if err != nil {
		return nil, err
	}
	res.P50TimeS, res.P99TimeS = qs[0], qs[1]
	if chaos != nil {
		res.Faults = chaos.Counts()
	}
	return res, nil
}

// sweepRegret scores the chosen plan against the sweep's best under a
// min-max normalized weighted sum over the whole estimated plan space —
// the same scalarization shape the selection rule uses, so the regret
// is unit-free and bounded by the weight sum. ok is false when the
// chosen plan is not in the sweep.
func sweepRegret(sw *ires.Sweep, chosen federation.Plan, weights []float64) (float64, bool) {
	if sw.Costs.Len() == 0 {
		return 0, false
	}
	lo := append([]float64(nil), sw.Costs.Row(0)...)
	hi := append([]float64(nil), sw.Costs.Row(0)...)
	for i := 1; i < sw.Costs.Len(); i++ {
		for d, v := range sw.Costs.Row(i) {
			lo[d] = math.Min(lo[d], v)
			hi[d] = math.Max(hi[d], v)
		}
	}
	score := func(c []float64) float64 {
		s := 0.0
		for d, v := range c {
			if span := hi[d] - lo[d]; span > 0 {
				s += weights[d] * (v - lo[d]) / span
			}
		}
		return s
	}
	chosenScore, best := math.Inf(1), math.Inf(1)
	for i, p := range sw.Plans {
		s := score(sw.Costs.Row(i))
		best = math.Min(best, s)
		if p == chosen {
			chosenScore = s
		}
	}
	if math.IsInf(chosenScore, 1) {
		return 0, false
	}
	return chosenScore - best, true
}

// RunScenarios sweeps the standard scenario.Matrix grid and renders the
// table the nightly CI job publishes.
func RunScenarios(opts ScenarioOptions) ([]ScenarioResult, *Table, error) {
	opts.setDefaults()
	var rows []ScenarioResult
	for _, spec := range scenario.Matrix(opts.Seed) {
		spec.Events = opts.Events
		spec.Queries = scenarioQueries
		r, err := RunScenario(spec, scenarioQueries)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
		rows = append(rows, *r)
	}

	t := &Table{
		Title: "Scenario sweep: estimation and decision quality under open-loop arrivals and injected faults.",
		Header: []string{"Scenario", "Events", "MRE time", "MRE cost", "Regret",
			"p50 time", "p99 time", "Faults (out/str/spk/rsz)"},
		Notes: []string{
			"MRE is the paper's eq. 15 relative error of the chosen plan's prediction",
			"regret is the chosen plan's normalized weighted-score excess over the refit model's best plan (0 = still optimal)",
			"faults count injected chaos windows: outages/stragglers/price spikes/pool resizes",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Spec.Name,
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%.3f", r.MRETime),
			fmt.Sprintf("%.3f", r.MREMoney),
			fmt.Sprintf("%.3f", r.Regret),
			fmt.Sprintf("%.2f s", r.P50TimeS),
			fmt.Sprintf("%.2f s", r.P99TimeS),
			fmt.Sprintf("%d/%d/%d/%d", r.Faults.Outages, r.Faults.Stragglers, r.Faults.Spikes, r.Faults.Resizes),
		})
	}
	return rows, t, nil
}
