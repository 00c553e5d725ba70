package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cloud"
	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/moo"
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
	// Regret is the mean true regret of the chosen plan: every plan of
	// the menu is priced by the oracle (ScaledExecutor.CostUnder) under
	// the loads and prices the decision's execution drew, noise aside,
	// every cost vector min-max normalized over the menu, and the chosen
	// plan's normalized weighted score compared against the best one.
	// 0 means the choice was optimal for the cloud it met; the scale is
	// weight-sum-bounded, so cells are comparable.
	Regret float64
	// P50TimeS / P99TimeS are percentiles of the measured execution
	// times — p99 is where outages and stragglers live.
	P50TimeS, P99TimeS float64
	// Faults counts the chaos windows actually injected.
	Faults cloud.FaultCounts
	// Decisions is the full decision sequence (reproducibility probe).
	Decisions []DecisionPoint
}

// scenarioNodeChoices is the cluster-size menu of every scenario stack.
var scenarioNodeChoices = []int{1, 2, 4}

// scenarioStack builds one serving stack for a scenario, bootstrapped
// on the well-behaved cloud; chaos attaches only after bootstrap, so
// every campaign starts from an honestly trained model. The oracle
// prices plans on the scheduler's federation as its executor does,
// without drawing anything.
func scenarioStack(spec scenario.Spec, queries []string) (*ires.Scheduler, *federation.ScaledExecutor, error) {
	fed, err := federation.DefaultTopology(spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	oracle, err := federation.NewScaledExecutor(fed, cal, 0.1)
	if err != nil {
		return nil, nil, err
	}
	sched, err := ires.NewDREAMScheduler(fed, cal, oracle.SF, ires.SchedulerConfig{NodeChoices: scenarioNodeChoices, Seed: spec.Seed})
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
	return sched, oracle, nil
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
	sched, oracle, err := scenarioStack(spec, queries)
	if err != nil {
		return nil, err
	}
	fed := oracle.Fed
	chaos := scenario.AttachChaos(fed, profile, spec.Seed)
	defer scenario.DetachChaos(fed)

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

		menu, err := fed.EnumeratePlans(q, scenarioNodeChoices)
		if err != nil {
			return nil, err
		}
		r, err := oracleRegret(oracle, menu, dec.Plan, dec.Outcome.Env, pol.Weights)
		if err != nil {
			return nil, err
		}
		regretSum += r
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

// oracleRegret scores the chosen plan against the best plan of the
// menu under the environment its execution drew, noise aside: each
// plan's true cost comes from the oracle, every cost vector is min-max
// normalized over the menu, and the regret is the chosen plan's
// weighted score minus the best one's — the selection rule's own
// scalarization, so it is unit-free and bounded by the weight sum.
func oracleRegret(oracle *federation.ScaledExecutor, menu []federation.Plan, chosen federation.Plan, env federation.Env, weights []float64) (float64, error) {
	env = env.Noiseless()
	costs := make([][]float64, len(menu))
	chosenAt := -1
	for i, p := range menu {
		out, err := oracle.CostUnder(p, env)
		if err != nil {
			return 0, err
		}
		costs[i] = out.Costs()
		if p == chosen {
			chosenAt = i
		}
	}
	if chosenAt < 0 {
		return 0, fmt.Errorf("experiments: chosen plan %v is not in the menu", chosen)
	}
	m, err := moo.NewCostMatrix(costs)
	if err != nil {
		return 0, err
	}
	norm := moo.NormalizeCosts(nil, m)
	score := func(i int) (s float64) {
		for d, v := range norm.Row(i) {
			s += weights[d] * v
		}
		return s
	}
	best := math.Inf(1)
	for i := range costs {
		best = math.Min(best, score(i))
	}
	return score(chosenAt) - best, nil
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
			"regret is the chosen plan's normalized weighted-score excess over the best plan's true cost under the loads and prices it met, noise aside (0 = optimal)",
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
