package ires

import (
	"errors"
	"testing"

	"repro/internal/federation"
	"repro/internal/tpch"
)

var errTransient = errors.New("transient execution failure")

// flakyExecutor fails every third Execute with errTransient and passes
// the rest through: a deterministic stand-in for a cloud's transient
// failures.
type flakyExecutor struct {
	federation.Executor
	calls, failures int
}

func (f *flakyExecutor) Execute(p federation.Plan) (*federation.Outcome, error) {
	f.calls++
	if f.calls%3 == 0 {
		f.failures++
		return nil, errTransient
	}
	return f.Executor.Execute(p)
}

// TestSchedulerSurvivesTransientFailures runs the full pipeline over an
// executor that fails every third run: each failure surfaces as the
// round's error and records nothing, a retried round completes, and the
// history holds only successful executions.
func TestSchedulerSurvivesTransientFailures(t *testing.T) {
	fed, err := federation.DefaultTopology(51)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, 51)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := federation.NewScaledExecutor(fed, cal, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyExecutor{Executor: inner}
	s, err := NewSchedulerWithConfig(fed, flaky, dreamModel(t), SchedulerConfig{NodeChoices: []int{1, 2, 4}, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	for recorded, attempts := 0, 0; recorded < 25; attempts++ {
		if attempts == 100 {
			t.Fatalf("bootstrap recorded %d of 25 in 100 attempts", recorded)
		}
		switch err := s.Bootstrap(tpch.QueryQ14, 1); {
		case err == nil:
			recorded++
		case !errors.Is(err, errTransient):
			t.Fatalf("bootstrap under chaos: %v", err)
		}
	}
	var dec *Decision
	for attempts := 0; dec == nil; attempts++ {
		if attempts == 10 {
			t.Fatal("submit failed 10 times in a row")
		}
		dec, err = s.Submit(tpch.QueryQ14, Policy{Weights: []float64{1, 1}})
		if err != nil && !errors.Is(err, errTransient) {
			t.Fatalf("submit under chaos: %v", err)
		}
	}
	if dec.Outcome == nil || dec.Outcome.TimeS <= 0 {
		t.Fatal("no outcome under chaos")
	}
	if flaky.failures == 0 {
		t.Error("chaos test injected no failures")
	}
	if s.History(tpch.QueryQ14).Len() != 26 {
		t.Errorf("history = %d, want 26 (only successes recorded)", s.History(tpch.QueryQ14).Len())
	}
}
