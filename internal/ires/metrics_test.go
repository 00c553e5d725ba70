package ires

import (
	"context"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/tpch"
)

// TestInstrumentedDecisionsIdentical is the observation-only contract
// of the scheduler's metrics: a fully instrumented scheduler must make
// byte-identical decisions to a bare one, round for round, while its
// instruments actually fill in.
func TestInstrumentedDecisionsIdentical(t *testing.T) {
	choices := []int{1, 2, 4}
	reg := metrics.NewRegistry()
	bare := buildStack(t, 42, SchedulerConfig{NodeChoices: choices, Seed: 42})
	metered := buildStack(t, 42, SchedulerConfig{
		NodeChoices: choices, Seed: 42,
		Metrics: reg, MetricsFederation: "t",
	})

	if err := bare.Bootstrap(tpch.QueryQ12, 25); err != nil {
		t.Fatal(err)
	}
	if err := metered.Bootstrap(tpch.QueryQ12, 25); err != nil {
		t.Fatal(err)
	}
	pol := Policy{Weights: []float64{1, 1}}
	for round := 0; round < 5; round++ {
		a, err := bare.Submit(tpch.QueryQ12, pol)
		if err != nil {
			t.Fatal(err)
		}
		b, err := metered.Submit(tpch.QueryQ12, pol)
		if err != nil {
			t.Fatal(err)
		}
		if renderDecision(a) != renderDecision(b) {
			t.Fatalf("round %d: instrumented decision diverged:\nbare:    %s\nmetered: %s",
				round, renderDecision(a), renderDecision(b))
		}
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := metrics.ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	if got := sc.Values[`midas_sweep_duration_seconds_count{federation="t",query="Q12"}`]; got != 5 {
		t.Errorf("sweep count = %v, want 5", got)
	}
	if got := sc.Values[`midas_plans_estimated_total{federation="t",query="Q12"}`]; got <= 0 {
		t.Errorf("plans estimated = %v, want > 0", got)
	}
	if got := sc.Values[`midas_window_size{federation="t"}`]; got <= 0 {
		t.Errorf("window size gauge = %v, want > 0", got)
	}
	hits := sc.Values[`midas_model_cache_hits_total{federation="t"}`]
	misses := sc.Values[`midas_model_cache_misses_total{federation="t"}`]
	if misses <= 0 || hits <= 0 {
		t.Errorf("model cache series empty: hits %v misses %v", hits, misses)
	}
	if got := sc.Values[`midas_window_incremental_steps_total{federation="t"}`]; got <= 0 {
		t.Errorf("incremental steps = %v, want > 0 (every window search folds observations)", got)
	}
	if _, ok := sc.Values[`midas_window_refits_avoided_total{federation="t"}`]; !ok {
		t.Error("refits-avoided series missing from the scrape")
	}
}

// TestSweepSeriesBoundLazily: a query's sweep instruments are
// bound on its first successful sweep, so a repeat allocates nothing,
// and the scrape holds exactly the series resolving them through With
// on every sweep did — none for a query that was never swept, the error
// counter alone for one whose sweeps failed.
func TestSweepSeriesBoundLazily(t *testing.T) {
	reg := metrics.NewRegistry()
	s := buildStack(t, 42, SchedulerConfig{NodeChoices: []int{1, 2, 4}, Seed: 42, Metrics: reg, MetricsFederation: "t"})
	if err := s.Bootstrap(tpch.QueryQ12, 25); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if _, err := s.Submit(tpch.QueryQ12, Policy{Weights: []float64{1, 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.PlanSweep(context.Background(), tpch.QueryQ13); !errors.Is(err, ErrNoHistory) {
		t.Fatalf("Q13 sweep without history: %v", err)
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := metrics.ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	var got []string
	for id := range sc.Values {
		if (strings.HasPrefix(id, "midas_sweep_") || strings.HasPrefix(id, "midas_plan") || strings.HasPrefix(id, "midas_pareto_")) &&
			!strings.Contains(id, "_bucket{") {
			got = append(got, id)
		}
	}
	slices.Sort(got)
	want := []string{
		`midas_pareto_candidates_total{federation="t",query="Q12"}`,
		`midas_plan_space{federation="t",query="Q12"}`,
		`midas_plans_estimated_total{federation="t",query="Q12"}`,
		`midas_sweep_duration_seconds_count{federation="t",query="Q12"}`,
		`midas_sweep_duration_seconds_sum{federation="t",query="Q12"}`,
		`midas_sweep_errors_total{federation="t",query="Q13"}`,
	}
	if !slices.Equal(got, want) {
		t.Errorf("sweep series:\n got %q\nwant %q", got, want)
	}

	began := time.Now()
	if allocs := testing.AllocsPerRun(100, func() { s.observeSweep(tpch.QueryQ12, began, 18, 18, nil) }); allocs != 0 {
		t.Errorf("a repeat observeSweep allocates %.1f times, want 0", allocs)
	}
}

// TestInstrumentSchedulerNilRegistry: a config without a registry
// leaves the scheduler uninstrumented, whatever its MetricsFederation.
func TestInstrumentSchedulerNilRegistry(t *testing.T) {
	s := buildStack(t, 7, SchedulerConfig{NodeChoices: []int{1, 2}, Seed: 7, MetricsFederation: "x"})
	if s.obs != nil {
		t.Fatal("nil registry should leave the scheduler uninstrumented")
	}
}

// TestSweepHistogramResolvesSweeps: the sweep histogram shares the
// request ladder, whose floor is far enough below a millisecond that a
// sweep does not vanish into the lowest bucket — not the 18-plan one
// (≈18 µs) and not the 2,048-plan one (≈0.2 ms), which cannot finish
// 2,048 predictions inside the lowest bound on any machine.
func TestSweepHistogramResolvesSweeps(t *testing.T) {
	reg := metrics.NewRegistry()
	s := buildWideStack(t, 42, 32, SchedulerConfig{Seed: 42, Metrics: reg, MetricsFederation: "wide"})
	if err := s.Bootstrap(tpch.QueryQ12, 24); err != nil {
		t.Fatal(err)
	}
	sw, err := s.PlanSweep(context.Background(), tpch.QueryQ12)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Plans) != 2048 {
		t.Fatalf("swept %d plans, want 2048", len(sw.Plans))
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := metrics.ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	lowest, inLowest := math.Inf(1), 0.0
	for id, v := range sc.Values {
		rest, ok := strings.CutPrefix(id, `midas_sweep_duration_seconds_bucket{federation="wide",query="Q12",le="`)
		if !ok {
			continue
		}
		bound, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			t.Fatalf("series %s: %v", id, err)
		}
		if bound < lowest {
			lowest, inLowest = bound, v
		}
	}
	if lowest > 50e-6 {
		t.Errorf("lowest sweep bucket is %v s, want a bound ≤ 50 µs", lowest)
	}
	if inLowest != 0 {
		t.Errorf("the 2,048-plan sweep fell in the lowest bucket (le=%v)", lowest)
	}
}
