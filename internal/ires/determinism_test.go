package ires

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/ml"
	"repro/internal/moo"
	"repro/internal/regression"
	"repro/internal/stats"
	"repro/internal/tpch"
)

// stackModel builds the DREAM Modelling module of the stacks below with
// the model cache on, or off for a negative cacheSize.
func stackModel(t *testing.T, cacheSize int) *DREAMModel {
	t.Helper()
	model, err := NewDREAMModel(core.Config{MMax: MMax, CacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// buildStack assembles one complete scheduler stack (federation,
// calibration, scaled executor, DREAM model with the default cache) with
// the given scheduler knobs. Two stacks built with the same seed are
// bit-identical.
func buildStack(t *testing.T, seed int64, cfg SchedulerConfig) *Scheduler {
	t.Helper()
	return buildStackOn(t, seed, stackModel(t, 0), cfg)
}

// buildStackOn is buildStack around the given model.
func buildStackOn(t *testing.T, seed int64, model CostModel, cfg SchedulerConfig) *Scheduler {
	t.Helper()
	fed, err := federation.DefaultTopology(seed)
	if err != nil {
		t.Fatal(err)
	}
	return stackOn(t, fed, seed, model, cfg)
}

// wideStack is buildStack over federation.WideTopology(seed, maxNodes)
// and the dense node menu — 2·maxNodes² plans per query — around the
// given model.
func wideStack(t *testing.T, seed int64, maxNodes int, model CostModel, cfg SchedulerConfig) *Scheduler {
	t.Helper()
	fed, err := federation.WideTopology(seed, maxNodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NodeChoices = federation.NodeRange(maxNodes)
	return stackOn(t, fed, seed, model, cfg)
}

// stackOn calibrates fed and assembles a scheduler over its scaled
// executor.
func stackOn(t *testing.T, fed *federation.Federation, seed int64, model CostModel, cfg SchedulerConfig) *Scheduler {
	t.Helper()
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, seed)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := federation.NewScaledExecutor(fed, cal, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchedulerWithConfig(fed, exec, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// renderDecision serializes every decision field (dereferencing the
// outcome pointer) for byte-level comparison.
func renderDecision(d *Decision) string {
	return fmt.Sprintf("plan=%+v est=%v outcome=%+v pareto=%d space=%d",
		d.Plan, d.Estimated, *d.Outcome, d.ParetoSize, d.PlanSpace)
}

// TestCachedSubmitMatchesUncached is the determinism contract of the
// estimation pipeline: for the same seed, a scheduler sharing one
// cached model fit per history version must make byte-identical
// decisions to the cache-less path that re-runs Algorithm 1 per plan.
func TestCachedSubmitMatchesUncached(t *testing.T) {
	choices := []int{1, 2, 3, 4, 6, 8, 12, 16}
	uncached := buildStackOn(t, 42, stackModel(t, -1), SchedulerConfig{NodeChoices: choices, Seed: 42})
	cached := buildStack(t, 42, SchedulerConfig{NodeChoices: choices, Seed: 42})

	if err := uncached.Bootstrap(tpch.QueryQ12, 25); err != nil {
		t.Fatal(err)
	}
	if err := cached.Bootstrap(tpch.QueryQ12, 25); err != nil {
		t.Fatal(err)
	}

	pol := Policy{Weights: []float64{1, 1}}
	for round := 0; round < 5; round++ {
		a, err := uncached.Submit(tpch.QueryQ12, pol)
		if err != nil {
			t.Fatalf("round %d uncached: %v", round, err)
		}
		b, err := cached.Submit(tpch.QueryQ12, pol)
		if err != nil {
			t.Fatalf("round %d cached: %v", round, err)
		}
		got, want := renderDecision(b), renderDecision(a)
		if got != want {
			t.Fatalf("round %d decisions diverge:\nuncached: %s\ncached:   %s", round, want, got)
		}
	}
}

// TestSubmitContextCancelled: a context cancelled before the round
// aborts it instead of running the plan sweep. (A cancel mid-sweep
// stops the per-plan route at its next chunk boundary:
// TestEstimateLoopStopsAtFirstFailure.)
func TestSubmitContextCancelled(t *testing.T) {
	s := buildStack(t, 5, SchedulerConfig{})
	if err := s.Bootstrap(tpch.QueryQ12, 20); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.SubmitContext(ctx, tpch.QueryQ12, Policy{Weights: []float64{1, 1}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// countingLinearModel is a DREAM model that records the plans of every
// fit lookup the linear route makes.
type countingLinearModel struct {
	*DREAMModel
	lookups []int
}

func (m *countingLinearModel) LinearModels(s *core.Snapshot, dim, plans int) ([]*regression.Model, error) {
	m.lookups = append(m.lookups, plans)
	return m.DREAMModel.LinearModels(s, dim, plans)
}

// scriptedModel is a CostModel whose n-th EstimateSnapshot call
// (1-based) runs onCall first and fails from call failFrom on.
type scriptedModel struct {
	calls    int
	failFrom int
	onCall   func(n int)
}

func (m *scriptedModel) Name() string { return "scripted" }

func (m *scriptedModel) EstimateSnapshot(_ *core.Snapshot, x []float64) ([]float64, error) {
	m.calls++
	if m.onCall != nil {
		m.onCall(m.calls)
	}
	if m.failFrom > 0 && m.calls >= m.failFrom {
		return nil, fmt.Errorf("scripted failure at call %d", m.calls)
	}
	return []float64{x[2], x[3]}, nil
}

// TestEstimateLoopStopsAtFirstFailure pins the two exits of the
// estimation loop on a lattice of two chunks: a model error past the
// first chunk is reported for the lowest failing plan index (named in
// the message) and nothing after it is estimated; a context cancelled
// mid-chunk stops the loop before the next chunk. The scripted model is
// not linear, so this is the per-plan route's bookkeeping.
func TestEstimateLoopStopsAtFirstFailure(t *testing.T) {
	s := wideStack(t, 5, 16, &scriptedModel{}, SchedulerConfig{Seed: 5})
	if err := s.Bootstrap(tpch.QueryQ12, 20); err != nil {
		t.Fatal(err)
	}
	plans, err := s.plans(tpch.QueryQ12)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) <= sweepChunk || len(plans) > 2*sweepChunk {
		t.Fatalf("%d plans, want two chunks of %d", len(plans), sweepChunk)
	}

	const failAt = sweepChunk + 44 // 0-based plan index
	model := &scriptedModel{failFrom: failAt + 1}
	s.model = model
	_, err = s.PlanSweep(context.Background(), tpch.QueryQ12)
	if err == nil || !strings.Contains(err.Error(), plans[failAt].String()) {
		t.Fatalf("err = %v, want a failure naming plan %d (%v)", err, failAt, plans[failAt])
	}
	if model.calls != failAt+1 {
		t.Fatalf("model saw %d calls, want the loop to stop after %d", model.calls, failAt+1)
	}

	// A feature failure further on does not mask the model's earlier one.
	model = &scriptedModel{failFrom: failAt + 1}
	s.model = model
	exec := s.exec
	s.exec = failingFeatures{Executor: exec, failAt: plans[failAt+9]}
	_, err = s.PlanSweep(context.Background(), tpch.QueryQ12)
	if err == nil || !strings.Contains(err.Error(), "estimating "+plans[failAt].String()) || model.calls != failAt+1 {
		t.Fatalf("err = %v after %d calls, want the model failure at plan %d", err, model.calls, failAt)
	}
	// On its own it is reported for its plan, and the model sees exactly
	// the plans before it.
	model = &scriptedModel{}
	s.model = model
	_, err = s.PlanSweep(context.Background(), tpch.QueryQ12)
	if err == nil || !strings.Contains(err.Error(), "features of "+plans[failAt+9].String()) || model.calls != failAt+9 {
		t.Fatalf("err = %v after %d calls, want the feature failure at plan %d", err, model.calls, failAt+9)
	}
	s.exec = exec

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	model = &scriptedModel{onCall: func(n int) {
		if n == 3 {
			cancel()
		}
	}}
	s.model = model
	if _, err := s.PlanSweep(ctx, tpch.QueryQ12); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if model.calls != sweepChunk {
		t.Fatalf("model saw %d calls after a cancel during call 3, want the chunk of %d finished and no more", model.calls, sweepChunk)
	}
}

// costlessModel scores every plan with a vector of no costs, plan by
// plan or, as costlessLinearModel, as no linear models.
type costlessModel struct{}

func (costlessModel) Name() string { return "costless" }
func (costlessModel) EstimateSnapshot(*core.Snapshot, []float64) ([]float64, error) {
	return []float64{}, nil
}

type costlessLinearModel struct{ costlessModel }

func (costlessLinearModel) LinearModels(*core.Snapshot, int, int) ([]*regression.Model, error) {
	return nil, nil
}

// A model with nothing to say about a plan is refused at the first
// chunk, naming the plan, on both routes and by every caller of the
// estimation loop: 2,048 empty vectors would all be "non-dominated" and
// the chosen one has no Estimated[0] for the serving layer to report.
func TestSweepRefusesCostlessModel(t *testing.T) {
	for _, tc := range []struct {
		route string
		model CostModel
	}{
		{"per-plan", costlessModel{}},
		{"linear", costlessLinearModel{}},
	} {
		s := wideStack(t, 5, 16, &scriptedModel{}, SchedulerConfig{Seed: 5})
		if err := s.Bootstrap(tpch.QueryQ12, 20); err != nil {
			t.Fatal(err)
		}
		plans, err := s.plans(tpch.QueryQ12)
		if err != nil {
			t.Fatal(err)
		}
		s.model = tc.model
		want := "model returned no costs for " + plans[0].String()
		for name, run := range map[string]func() error{
			"PlanSweep": func() error { _, err := s.PlanSweep(context.Background(), tpch.QueryQ12); return err },
			"Submit":    func() error { _, err := s.Submit(tpch.QueryQ12, Policy{}); return err },
		} {
			if err := run(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s route, %s: err = %v, want %q", tc.route, name, err, want)
			}
		}
	}
}

// routeModel is a cached DREAM model and, for the per-plan route, the
// same model behind perPlanModel: its EstimatorStats read either route's
// work.
func routeModel(t *testing.T, linear bool) (*DREAMModel, CostModel) {
	dream := stackModel(t, 0)
	if linear {
		return dream, dream
	}
	return dream, perPlanModel{dream}
}

// failingSizer is an executor that cannot say a query's input sizes:
// InputBytes fails for every query, and so does Features, which an
// InputSizer promises is built from them.
type failingSizer struct{ federation.Executor }

var errScriptedSize = errors.New("scripted size failure")

func (failingSizer) InputBytes(tpch.QueryID) (float64, float64, error) { return 0, 0, errScriptedSize }
func (failingSizer) Features(federation.Plan) ([]float64, error)       { return nil, errScriptedSize }

// TestSweepFailureNamesPlan: a sweep that cannot score its first plan
// says why and for which plan, the same on the linear route and the
// per-plan route. An executor that cannot size the query is the first
// plan's feature failure, and the model is never asked (no lookup
// counted); a fit that fails — a history below L+2 observations — is the
// first plan's estimating failure.
func TestSweepFailureNamesPlan(t *testing.T) {
	for _, tc := range []struct {
		name      string
		bootstrap int
		sizeFails bool
		prefix    string
		cause     error
	}{
		{"size", 20, true, "ires: features of ", errScriptedSize},
		{"fit", 3, false, "ires: estimating ", core.ErrInsufficientHistory},
	} {
		for _, linear := range []bool{true, false} {
			dream, model := routeModel(t, linear)
			s := buildStackOn(t, 5, model, SchedulerConfig{Seed: 5})
			if err := s.Bootstrap(tpch.QueryQ12, tc.bootstrap); err != nil {
				t.Fatal(err)
			}
			if tc.sizeFails {
				s.exec = failingSizer{s.exec}
			}
			if got := s.sweeper(tpch.QueryQ12, s.History(tpch.QueryQ12), nil, new(sweepBuf)).linear != nil; got != linear {
				t.Fatalf("%s: linear route %v, want %v", tc.name, got, linear)
			}
			plans, err := s.plans(tpch.QueryQ12)
			if err != nil {
				t.Fatal(err)
			}
			before := dream.EstimatorStats()
			_, err = s.PlanSweep(context.Background(), tpch.QueryQ12)
			if want := tc.prefix + plans[0].String(); err == nil || !strings.HasPrefix(err.Error(), want) || !errors.Is(err, tc.cause) {
				t.Errorf("%s, linear %v: err = %v, want %q… wrapping %v", tc.name, linear, err, want, tc.cause)
			}
			if after := dream.EstimatorStats(); after != before {
				t.Errorf("%s, linear %v: the model was asked: %+v → %+v", tc.name, linear, before, after)
			}
		}
	}
}

// TestWalkLooksFitUpOnce: a walk looks its fit up once per sweep,
// counted as the lattice's plans, at 2,048 plans and at Example 3.1's
// 18,432; the window search depends on the history alone, so one fit
// scores every plan.
func TestWalkLooksFitUpOnce(t *testing.T) {
	for _, maxNodes := range []int{32, 96} {
		model := &countingLinearModel{DREAMModel: stackModel(t, 0)}
		s := wideStack(t, 5, maxNodes, model, SchedulerConfig{Seed: 5})
		if err := s.Bootstrap(tpch.QueryQ12, 24); err != nil {
			t.Fatal(err)
		}
		for round := range 2 {
			model.lookups = nil
			sw, err := s.PlanSweep(context.Background(), tpch.QueryQ12)
			if err != nil {
				t.Fatal(err)
			}
			if n := 2 * maxNodes * maxNodes; len(sw.Plans) != n || fmt.Sprint(model.lookups) != fmt.Sprint([]int{n}) {
				t.Errorf("%d plans, round %d: lookups for %v plans, want one for %d", len(sw.Plans), round, model.lookups, n)
			}
			s.ReleaseSweep(sw)
		}
	}
}

// TestSweepCountsLookupsPerPlan: an n-plan sweep adds n lookups to the
// model cache — one miss and n−1 hits on a fresh history version — and
// one window search, on the linear and the per-plan route alike, so
// core.cache_hit_ratio and midas_model_cache_hits_total mean the same
// whichever route a round takes. A walk makes its one lookup for the
// whole lattice.
func TestSweepCountsLookupsPerPlan(t *testing.T) {
	for _, maxNodes := range []int{32, 96} {
		n := 2 * maxNodes * maxNodes
		for _, linear := range []bool{true, false} {
			dream, model := routeModel(t, linear)
			s := wideStack(t, 42, maxNodes, model, SchedulerConfig{Seed: 42})
			if err := s.Bootstrap(tpch.QueryQ12, 24); err != nil {
				t.Fatal(err)
			}
			before := dream.EstimatorStats()
			sw, err := s.PlanSweep(context.Background(), tpch.QueryQ12)
			if err != nil {
				t.Fatal(err)
			}
			after := dream.EstimatorStats()
			if hits, misses, searches := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses,
				after.WindowSearches-before.WindowSearches; len(sw.Plans) != n || misses != 1 || hits != uint64(n-1) || searches != 1 {
				t.Errorf("linear %v: %d plans: %d misses, %d hits, %d window searches; want %d: 1, %d, 1",
					linear, len(sw.Plans), misses, hits, searches, n, n-1)
			}
		}
	}
}

// recordExecution executes p and appends the measurement to q's
// history — the six-metric breakdown when breakdown is set, which
// the scheduler's record cannot write — and returns what it appended.
func recordExecution(t *testing.T, s *Scheduler, q tpch.QueryID, p federation.Plan, breakdown bool) (core.Observation, *federation.Outcome) {
	t.Helper()
	out, err := s.exec.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.features(p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.OpenHistory(q)
	if err != nil {
		t.Fatal(err)
	}
	obs := core.Observation{X: x, Costs: out.Costs()}
	if breakdown {
		obs.Costs = out.BreakdownCosts()
	}
	if err := h.Append(obs); err != nil {
		t.Fatal(err)
	}
	return obs, out
}

// versionModel records the history version of every snapshot it scores
// against, and its first call appends obs to h — a Record landing in the
// middle of the round.
type versionModel struct {
	inner    CostModel
	h        *core.History
	obs      core.Observation
	versions []uint64
}

func (m *versionModel) Name() string { return m.inner.Name() }
func (m *versionModel) EstimateSnapshot(s *core.Snapshot, x []float64) ([]float64, error) {
	if len(m.versions) == 0 {
		if err := m.h.Append(m.obs); err != nil {
			return nil, err
		}
	}
	m.versions = append(m.versions, s.Version())
	return m.inner.EstimateSnapshot(s, x)
}

// TestSweepScoresOneSnapshot: every plan of a round is scored against
// the one history version the round started from, whatever the model,
// even when an observation is appended after the first plan.
func TestSweepScoresOneSnapshot(t *testing.T) {
	const q = tpch.QueryQ12
	cfg := core.Config{MMax: MMax}
	for _, tc := range []struct {
		name      string
		breakdown bool
		build     func() (CostModel, error)
	}{
		{"bml", false, func() (CostModel, error) { return &BMLModel{Learner: ml.LeastSquares{}, WindowMultiple: 3}, nil }},
		{"composite", true, func() (CostModel, error) { return NewCompositeDREAMModel(cfg) }},
		{"dream-per-plan", false, func() (CostModel, error) {
			m, err := NewDREAMModel(cfg)
			return perPlanModel{m}, err
		}},
	} {
		inner, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		model := &versionModel{inner: inner}
		sc := SchedulerConfig{Seed: 9}
		if tc.breakdown {
			sc.Store = breakdownStore{open: map[string]*core.History{}}
		}
		s := buildStackOn(t, 9, model, sc)
		plans, err := s.plans(q)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(9)
		for n := 0; n < 24; n++ {
			model.obs, _ = recordExecution(t, s, q, plans[rng.Intn(len(plans))], tc.breakdown)
		}
		h := s.History(q)
		model.h = h
		before := h.Version()
		if _, err := s.PlanSweep(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(model.versions) != len(plans) || h.Version() != before+1 {
			t.Fatalf("%s: %d of %d plans scored, history version %d → %d", tc.name, len(model.versions), len(plans), before, h.Version())
		}
		for i, v := range model.versions {
			if v != before {
				t.Fatalf("%s: plan %d scored against version %d, the round began at %d", tc.name, i, v, before)
			}
		}
	}
}

// The frozen seam: bench/run.go (its own module, which `go test ./...`
// never compiles and a PR that claims a gain may not edit) hands a
// sweep's cost matrix straight to the Pareto reduction. Sweep.Costs'
// type and ParetoFront's parameter type move together or not at all.
var _ = func(sw *Sweep) ([]int, error) { return moo.ParetoFront(sw.Costs) }

// failingFeatures is an executor whose Features fails for one plan.
type failingFeatures struct {
	federation.Executor
	failAt federation.Plan
}

func (e failingFeatures) Features(p federation.Plan) ([]float64, error) {
	if p == e.failAt {
		return nil, errors.New("scripted feature failure")
	}
	return e.Executor.Features(p)
}

// perPlanModel and perPlanExecutor expose only the per-plan methods of
// what they wrap — the way bench/trace.go's decorators do — so a
// scheduler assembled from either scores plan by plan.
type perPlanModel struct{ inner CostModel }

func (m perPlanModel) Name() string { return m.inner.Name() }
func (m perPlanModel) EstimateSnapshot(s *core.Snapshot, x []float64) ([]float64, error) {
	return m.inner.EstimateSnapshot(s, x)
}

type perPlanExecutor struct{ inner federation.Executor }

func (e perPlanExecutor) Execute(p federation.Plan) (*federation.Outcome, error) {
	return e.inner.Execute(p)
}
func (e perPlanExecutor) Features(p federation.Plan) ([]float64, error) {
	return e.inner.Features(p)
}

// breakdownStore opens every history with the operator-level metric set
// the composite model needs.
type breakdownStore struct{ open map[string]*core.History }

func (b breakdownStore) OpenHistory(name string, dim int, _ []string) (*core.History, error) {
	if h, ok := b.open[name]; ok {
		return h, nil
	}
	h, err := core.NewHistory(dim, federation.BreakdownMetrics...)
	b.open[name] = h
	return h, err
}
func (breakdownStore) Sync() error { return nil }

// requireSameSweep fails unless two sweeps agree on every plan, every
// bit of every plan's cost vector (AllCosts) and the front.
func requireSameSweep(t *testing.T, round int, got, want *Sweep) {
	t.Helper()
	gotCosts, wantCosts := got.AllCosts(), want.AllCosts()
	if len(got.Plans) != len(want.Plans) || gotCosts.Len() != len(got.Plans) || wantCosts.Len() != len(want.Plans) {
		t.Fatalf("round %d: sweep shapes differ: %d/%d plans, %d/%d costs", round, len(got.Plans), len(want.Plans), gotCosts.Len(), wantCosts.Len())
	}
	for i := range want.Plans {
		if got.Plans[i] != want.Plans[i] || !equalBits(gotCosts.Row(i), wantCosts.Row(i)) {
			t.Fatalf("round %d: position %d: %v %v, want %v %v", round, i, got.Plans[i], gotCosts.Row(i), want.Plans[i], wantCosts.Row(i))
		}
	}
	if fmt.Sprint(got.FrontIdx) != fmt.Sprint(want.FrontIdx) {
		t.Fatalf("round %d: fronts differ: %v vs %v", round, got.FrontIdx, want.FrontIdx)
	}
}

// TestBatchedSweepMatchesPerPlan: DREAM over a sized executor is scored
// straight from the plans, chunk by chunk, and plan by plan when a
// decorator hides either capability; the composite and BML are scored
// plan by plan either way; and nobody can tell from the results. Every
// bundled model × cache on and off, on a lattice of two chunks: the
// full sweeps (plans, every cost bit, front) and the decisions of 50
// rounds are identical for the bare and the decorated stack.
func TestBatchedSweepMatchesPerPlan(t *testing.T) {
	const maxNodes = 12 // 288 plans
	const q = tpch.QueryQ12
	dreamCfg := func(cacheSize int) core.Config {
		return core.Config{MMax: MMax, CacheSize: cacheSize}
	}
	models := []struct {
		name              string
		breakdown, linear bool // linear: the batched stack takes the linear route
		build             func() (CostModel, error)
	}{
		{"dream", false, true, func() (CostModel, error) { return NewDREAMModel(dreamCfg(0)) }},
		{"dream-uncached", false, true, func() (CostModel, error) { return NewDREAMModel(dreamCfg(-1)) }},
		{"composite", true, false, func() (CostModel, error) { return NewCompositeDREAMModel(dreamCfg(0)) }},
		{"composite-uncached", true, false, func() (CostModel, error) { return NewCompositeDREAMModel(dreamCfg(-1)) }},
		{"bml", false, false, func() (CostModel, error) { return &BMLModel{Learner: ml.LeastSquares{}, WindowMultiple: 3}, nil }},
	}
	pol := Policy{Weights: []float64{1, 1}}

	record := func(t *testing.T, s *Scheduler, p federation.Plan) string {
		t.Helper()
		_, out := recordExecution(t, s, q, p, true)
		return fmt.Sprintf("plan=%+v outcome=%+v", p, *out)
	}

	for _, m := range models {
		t.Run(m.name+"/full", func(t *testing.T) {
			t.Parallel()
			const rounds = 50
			var stacks [2]*Scheduler // batched, per plan
			for i := range stacks {
				model, err := m.build()
				if err != nil {
					t.Fatal(err)
				}
				cfg := SchedulerConfig{Seed: 21}
				if m.breakdown {
					cfg.Store = breakdownStore{open: map[string]*core.History{}}
				}
				s := wideStack(t, 21, maxNodes, model, cfg)
				if i == 1 {
					s.exec, s.model = perPlanExecutor{s.exec}, perPlanModel{s.model}
				}
				if !m.breakdown {
					if err := s.Bootstrap(q, 24); err != nil {
						t.Fatal(err)
					}
				} else {
					plans, err := s.plans(q)
					if err != nil {
						t.Fatal(err)
					}
					rng := stats.NewRNG(21)
					for n := 0; n < 24; n++ {
						record(t, s, plans[rng.Intn(len(plans))])
					}
				}
				if linear := s.sweeper(q, s.History(q), nil, new(sweepBuf)).linear != nil; linear != (m.linear && i == 0) {
					t.Fatalf("stack %d takes the linear route: %v", i, linear)
				}
				stacks[i] = s
			}
			for round := 0; round < rounds; round++ {
				var sweeps [2]*Sweep
				var decisions [2]string
				for i, s := range stacks {
					sw, err := s.PlanSweep(context.Background(), q)
					if err != nil {
						t.Fatalf("round %d route %d: %v", round, i, err)
					}
					sweeps[i] = sw
					if m.breakdown {
						idx, err := sw.Select(pol)
						if err != nil {
							t.Fatal(err)
						}
						decisions[i] = record(t, s, sw.Plans[idx])
						continue
					}
					dec, err := s.DecideFromSweep(sw, pol)
					if err != nil {
						t.Fatalf("round %d route %d: %v", round, i, err)
					}
					decisions[i] = renderDecision(dec)
				}
				requireSameSweep(t, round, sweeps[0], sweeps[1])
				if decisions[0] != decisions[1] {
					t.Fatalf("round %d decisions diverge:\nbatched:  %s\nper plan: %s", round, decisions[0], decisions[1])
				}
			}
		})
	}
}

// TestSchedulerWithConfigDefaults: the zero config yields a working
// scheduler with default node choices.
func TestSchedulerWithConfigDefaults(t *testing.T) {
	s := buildStack(t, 3, SchedulerConfig{})
	if len(s.nodeChoices) == 0 {
		t.Fatal("default node choices not applied")
	}
	if err := s.Bootstrap(tpch.QueryQ14, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(tpch.QueryQ14, Policy{Weights: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
}

// TestRetainedDecisionsIdentical: bounding the histories must change no
// decision and no estimate, because the model reads at most its MMax
// newest observations and the bound is far above that. Two schedulers,
// same seed, one keeping its newest 1,024..2,048 observations: 5,000
// submissions — three trims — decide byte-identically, and the histories
// agree on every observation the bounded one still holds.
func TestRetainedDecisionsIdentical(t *testing.T) {
	const retain, submissions = 1024, 5000
	choices := []int{1, 2, 4}
	keepAll := buildStack(t, 42, SchedulerConfig{NodeChoices: choices, Seed: 42})
	bounded := buildStack(t, 42, SchedulerConfig{NodeChoices: choices, Seed: 42, Retain: retain})
	for _, s := range []*Scheduler{keepAll, bounded} {
		if err := s.Bootstrap(tpch.QueryQ12, 20); err != nil {
			t.Fatal(err)
		}
	}
	pol := Policy{Weights: []float64{1, 1}}
	for round := 0; round < submissions; round++ {
		a, err := keepAll.Submit(tpch.QueryQ12, pol)
		if err != nil {
			t.Fatalf("round %d unbounded: %v", round, err)
		}
		b, err := bounded.Submit(tpch.QueryQ12, pol)
		if err != nil {
			t.Fatalf("round %d bounded: %v", round, err)
		}
		if renderDecision(a) != renderDecision(b) {
			t.Fatalf("round %d: bounded decision diverged:\nall:     %s\nbounded: %s", round, renderDecision(a), renderDecision(b))
		}
	}
	all, kept := keepAll.History(tpch.QueryQ12), bounded.History(tpch.QueryQ12)
	if all.Base() != 0 || kept.Len() != all.Len() || kept.Base() != 3*retain {
		t.Fatalf("histories: unbounded [%d, %d), bounded [%d, %d)", all.Base(), all.Len(), kept.Base(), kept.Len())
	}
	for i := kept.Base(); i < kept.Len(); i++ {
		if fmt.Sprint(kept.At(i)) != fmt.Sprint(all.At(i)) {
			t.Fatalf("observation %d differs: %v vs %v", i, kept.At(i), all.At(i))
		}
	}
}
