package workload

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/tpch"
)

func newHarness(t *testing.T, seed int64) *Harness {
	t.Helper()
	h, err := NewHarness(seed)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestRunValidation(t *testing.T) {
	h := newHarness(t, 1)
	models, err := PaperModels(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(EvalConfig{Query: tpch.QueryQ12, SF: 0.1}, nil); !errors.Is(err, ErrNoModels) {
		t.Errorf("got %v, want ErrNoModels", err)
	}
	if _, err := h.Run(EvalConfig{Query: tpch.QueryQ12, SF: 0}, models); err == nil {
		t.Error("zero SF accepted")
	}
}

// failingModel fails every prediction.
type failingModel struct{}

var errFailing = errors.New("no prediction")

func (failingModel) Name() string { return "failing" }

func (failingModel) EstimateSnapshot(*core.Snapshot, []float64) ([]float64, error) {
	return nil, errFailing
}

// TestRunMarksAFailedModelUnscored: a model that predicted nothing has
// undefined MREs (NaN, not the perfect 0) and keeps its first error.
func TestRunMarksAFailedModelUnscored(t *testing.T) {
	h := newHarness(t, 1)
	res, err := h.Run(EvalConfig{Query: tpch.QueryQ12, SF: 0.1, HistorySize: 20, TestQueries: 5, Seed: 1},
		[]ModelSpec{{Name: "failing", Model: failingModel{}}})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Scores["failing"]
	if s.Failures != 5 || !math.IsNaN(s.TimeMRE) || !math.IsNaN(s.MoneyMRE) || !errors.Is(s.Err, errFailing) {
		t.Errorf("score = %+v, want 5 failures, NaN MREs and the model's error", s)
	}
}

func TestPaperModelsComplete(t *testing.T) {
	models, err := PaperModels(7)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"BMLN": true, "BML2N": true, "BML3N": true, "BML": true, "DREAM": true}
	if len(models) != len(want) {
		t.Fatalf("got %d models, want %d", len(models), len(want))
	}
	for _, m := range models {
		if !want[m.Name] {
			t.Errorf("unexpected model %q", m.Name)
		}
		if m.Model == nil {
			t.Errorf("model %q is nil", m.Name)
		}
	}
}

func TestRunScoresAllModels(t *testing.T) {
	h := newHarness(t, 2)
	models, err := PaperModels(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(EvalConfig{
		Query:       tpch.QueryQ12,
		SF:          0.05,
		HistorySize: 40,
		TestQueries: 15,
		Seed:        2,
	}, models)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != len(models) {
		t.Fatalf("scored %d models, want %d", len(res.Scores), len(models))
	}
	for name, s := range res.Scores {
		if s.Failures > 3 {
			t.Errorf("%s failed on %d test queries", name, s.Failures)
		}
		if s.Failures < 15 && s.TimeMRE <= 0 {
			t.Errorf("%s TimeMRE = %v, want > 0", name, s.TimeMRE)
		}
	}
	// History grew by the test stream.
	if res.History.Len() != 40+15 {
		t.Errorf("final history = %d, want 55", res.History.Len())
	}
}

func TestRunIsDeterministic(t *testing.T) {
	run := func() map[string]ModelScore {
		h := newHarness(t, 3)
		models, err := PaperModels(3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Run(EvalConfig{
			Query:       tpch.QueryQ14,
			SF:          0.05,
			HistorySize: 30,
			TestQueries: 10,
			Seed:        3,
		}, models)
		if err != nil {
			t.Fatal(err)
		}
		return res.Scores
	}
	a, b := run(), run()
	for name := range a {
		if a[name] != b[name] {
			t.Errorf("model %s not deterministic: %+v vs %+v", name, a[name], b[name])
		}
	}
}

func TestDREAMCompetitiveOnEveryQuery(t *testing.T) {
	// The paper's headline (Tables 3/4): DREAM has the lowest MRE.
	// At test scale we assert the weaker, stable property that DREAM is
	// never the *worst* model and stays within 2× of the best — the
	// full-strength comparison runs in the benchmark harness.
	if testing.Short() {
		t.Skip("evaluation campaign is slow for -short")
	}
	h := newHarness(t, 4)
	models, err := PaperModels(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range tpch.AllQueries {
		res, err := h.Run(EvalConfig{
			Query:       q,
			SF:          0.1,
			HistorySize: 60,
			TestQueries: 25,
			Seed:        100 + int64(q),
		}, models)
		if err != nil {
			t.Fatal(err)
		}
		dream := res.Scores["DREAM"].TimeMRE
		worst, best := 0.0, 1e18
		for name, s := range res.Scores {
			if s.TimeMRE > worst {
				worst = s.TimeMRE
			}
			if s.TimeMRE < best {
				best = s.TimeMRE
			}
			t.Logf("%v %-6s MRE=%.3f", q, name, s.TimeMRE)
		}
		if dream >= worst && worst > best {
			t.Errorf("%v: DREAM is the worst model (%.3f, range %.3f–%.3f)", q, dream, best, worst)
		}
		if dream > 2*best {
			t.Errorf("%v: DREAM MRE %.3f more than 2× best %.3f", q, dream, best)
		}
	}
}
