package ires

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/moo"
	"repro/internal/tpch"
)

// buildStack assembles one complete scheduler stack (federation,
// calibration, scaled executor, DREAM model) with the given estimation
// knobs. Two stacks built with the same seed are bit-identical.
func buildStack(t *testing.T, seed int64, cfg SchedulerConfig) *Scheduler {
	t.Helper()
	fed, err := federation.DefaultTopology(seed)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := federation.Calibrate(fed, 0.004, seed)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := federation.NewScaledExecutor(fed, cal, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewDREAMModel(core.Config{MMax: 3 * (federation.FeatureDim + 2)})
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
	uncached := buildStack(t, 42, SchedulerConfig{NodeChoices: choices, Seed: 42, CacheSize: -1})
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

// TestCachedOptimizeWSMMatchesUncached covers the weighted-sum path of
// Figure 3 under the same contract.
func TestCachedOptimizeWSMMatchesUncached(t *testing.T) {
	choices := []int{1, 2, 3, 4, 6, 8, 12, 16}
	uncached := buildStack(t, 7, SchedulerConfig{NodeChoices: choices, Seed: 7, CacheSize: -1})
	cached := buildStack(t, 7, SchedulerConfig{NodeChoices: choices, Seed: 7})
	if err := uncached.Bootstrap(tpch.QueryQ13, 25); err != nil {
		t.Fatal(err)
	}
	if err := cached.Bootstrap(tpch.QueryQ13, 25); err != nil {
		t.Fatal(err)
	}
	pol := Policy{Weights: []float64{2, 1}}
	a, err := uncached.OptimizeWSM(tpch.QueryQ13, pol)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cached.OptimizeWSM(tpch.QueryQ13, pol)
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan != b.Plan {
		t.Fatalf("WSM plans diverge: uncached %+v, cached %+v", a.Plan, b.Plan)
	}
	if a.ModelEvaluations != b.ModelEvaluations {
		t.Fatalf("evaluation counts diverge: %d vs %d", a.ModelEvaluations, b.ModelEvaluations)
	}
}

// TestCachedOptimizeGAMatchesUncached: NSGA-II over the plan problem
// returns the same Pareto set whether each distinct plan's estimate
// comes from the cached fit or a fresh window search.
func TestCachedOptimizeGAMatchesUncached(t *testing.T) {
	choices := []int{1, 2, 4, 8, 16}
	uncached := buildStack(t, 11, SchedulerConfig{NodeChoices: choices, Seed: 11, CacheSize: -1})
	cached := buildStack(t, 11, SchedulerConfig{NodeChoices: choices, Seed: 11})
	if err := uncached.Bootstrap(tpch.QueryQ12, 25); err != nil {
		t.Fatal(err)
	}
	if err := cached.Bootstrap(tpch.QueryQ12, 25); err != nil {
		t.Fatal(err)
	}
	cfg := moo.NSGAIIConfig{PopSize: 24, Generations: 10, Seed: 3}
	a, err := uncached.OptimizeGA(tpch.QueryQ12, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cached.OptimizeGA(tpch.QueryQ12, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, want := fmt.Sprintf("%+v %+v", b.Plans, b.Costs), fmt.Sprintf("%+v %+v", a.Plans, a.Costs)
	if got != want {
		t.Fatalf("GA results diverge:\nuncached: %s\ncached:   %s", want, got)
	}
	if a.ModelEvaluations != b.ModelEvaluations {
		t.Fatalf("distinct-plan evaluation counts diverge: %d vs %d", a.ModelEvaluations, b.ModelEvaluations)
	}
}

// TestSubmitContextCancelled: a cancelled context aborts the estimation
// loop instead of running the full plan sweep.
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

// scriptedModel is a CostModel whose n-th Estimate call (1-based) runs
// onCall first and fails from call failFrom on.
type scriptedModel struct {
	calls    int
	failFrom int
	onCall   func(n int)
}

func (m *scriptedModel) Name() string { return "scripted" }

func (m *scriptedModel) Estimate(h *core.History, x []float64) ([]float64, error) {
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
// per-plan loop: a model error is reported for the lowest failing plan
// index (named in the message) and nothing after it is estimated; a
// context cancelled mid-sweep stops the loop before the next plan.
func TestEstimateLoopStopsAtFirstFailure(t *testing.T) {
	s := buildStack(t, 5, SchedulerConfig{})
	if err := s.Bootstrap(tpch.QueryQ12, 20); err != nil {
		t.Fatal(err)
	}
	plans, err := s.plans(tpch.QueryQ12)
	if err != nil {
		t.Fatal(err)
	}

	const failAt = 7 // 0-based plan index
	model := &scriptedModel{failFrom: failAt + 1}
	s.Model = model
	_, err = s.PlanSweep(context.Background(), tpch.QueryQ12)
	if err == nil || !strings.Contains(err.Error(), plans[failAt].String()) {
		t.Fatalf("err = %v, want a failure naming plan %d (%v)", err, failAt, plans[failAt])
	}
	if model.calls != failAt+1 {
		t.Fatalf("model saw %d calls, want the loop to stop after %d", model.calls, failAt+1)
	}
	if _, err := s.OptimizeWSM(tpch.QueryQ12, Policy{}); err == nil || !strings.Contains(err.Error(), "scripted failure") {
		t.Fatalf("OptimizeWSM err = %v, want the model failure", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	model = &scriptedModel{onCall: func(n int) {
		if n == 3 {
			cancel()
		}
	}}
	s.Model = model
	if _, err := s.PlanSweep(ctx, tpch.QueryQ12); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if model.calls != 3 {
		t.Fatalf("model saw %d calls after a cancel during call 3", model.calls)
	}
}

// TestSchedulerWithConfigDefaults: the zero config yields a working
// scheduler with default node choices.
func TestSchedulerWithConfigDefaults(t *testing.T) {
	s := buildStack(t, 3, SchedulerConfig{})
	if len(s.NodeChoices) == 0 {
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
