package midas

import (
	"bytes"
	"math"
	"testing"
)

// The root-package tests exercise the public facade end to end, the way
// a downstream user would.

func TestFacadeFullPipeline(t *testing.T) {
	fed, err := NewDefaultFederation(71)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(fed, 0.004, 71)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NewScaledExecutor(fed, cal, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewDREAMModel(DREAMConfig{MMax: 3 * (FeatureDim + 2)})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduler(fed, exec, model, nil, 71)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Bootstrap(QueryQ12, 20); err != nil {
		t.Fatal(err)
	}
	dec, err := sched.Submit(QueryQ12, Policy{Weights: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome.TimeS <= 0 || dec.Outcome.MoneyUSD < 0 {
		t.Fatalf("degenerate outcome %+v", dec.Outcome)
	}
	if len(dec.Estimated) != len(Metrics) {
		t.Fatalf("estimate dim %d", len(dec.Estimated))
	}
}

// TestFacadeSchedulerWithConfig drives the config-assembled scheduler
// through the public API: model cache on, and a history snapshot taken
// mid-run.
func TestFacadeSchedulerWithConfig(t *testing.T) {
	fed, err := NewDefaultFederation(19)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(fed, 0.004, 19)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NewScaledExecutor(fed, cal, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewDREAMModel(DREAMConfig{MMax: 3 * (FeatureDim + 2), CacheSize: DefaultModelCacheSize})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewSchedulerWithConfig(fed, exec, model, SchedulerConfig{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Bootstrap(QueryQ12, 20); err != nil {
		t.Fatal(err)
	}
	dec, err := sched.Submit(QueryQ12, Policy{Weights: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome.TimeS <= 0 {
		t.Fatalf("degenerate outcome %+v", dec.Outcome)
	}
	var snap *HistorySnapshot = sched.History(QueryQ12).Snapshot()
	if snap.Len() != 21 { // 20 bootstrap runs + 1 submitted round
		t.Fatalf("snapshot Len = %d, want 21", snap.Len())
	}
	hits, misses := model.Est.CacheStats()
	if hits+misses == 0 {
		t.Fatal("model cache never consulted")
	}
}

func TestFacadeDREAMAndPersistence(t *testing.T) {
	h, err := NewHistory(1, "time_s")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		x := float64(i%7 + 1)
		if err := h.Append(Observation{X: []float64{x}, Costs: []float64{3 * x}}); err != nil {
			t.Fatal(err)
		}
	}
	est, err := NewDREAMEstimator(DREAMConfig{RequiredR2: DefaultRequiredR2})
	if err != nil {
		t.Fatal(err)
	}
	e, err := est.EstimateCostValue(h, []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values()[0]-12) > 1e-6 {
		t.Errorf("estimate = %v, want 12", e.Values()[0])
	}
	var buf bytes.Buffer
	if err := SaveSnapshot(h.Snapshot(), &buf); err != nil {
		t.Fatal(err)
	}
	h2, err := LoadHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Len() != h.Len() {
		t.Fatalf("round-trip lost observations: %d vs %d", h2.Len(), h.Len())
	}
}

func TestFacadeLearners(t *testing.T) {
	samples := make([]Sample, 40)
	for i := range samples {
		x := float64(i%9 + 1)
		samples[i] = Sample{X: []float64{x}, C: 2 + 5*x}
	}
	for _, l := range []Learner{LeastSquares{}, Bagging{Seed: 1}, MLP{Seed: 1, Epochs: 100}, BML{Seed: 1}, Huber{}} {
		p, err := l.Train(samples)
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		v, err := p.Predict([]float64{5})
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		if math.Abs(v-27) > 5 {
			t.Errorf("%s predicts %v, want ≈27", l.Name(), v)
		}
	}
	m, err := FitMLR(samples)
	if err != nil {
		t.Fatal(err)
	}
	if m.R2 < 0.999 {
		t.Errorf("MLR R² = %v on exact data", m.R2)
	}
}

func TestFacadeMOO(t *testing.T) {
	costs := [][]float64{{1, 9}, {3, 3}, {9, 1}, {9, 9}}
	front, err := ParetoFront(costs)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 3 {
		t.Errorf("front = %v, want 3 members", front)
	}
	i, err := BestInPareto(costs, []float64{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if i != 1 {
		t.Errorf("BestInPareto = %d, want 1", i)
	}
	k, err := KneePoint(costs[:3])
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Errorf("knee = %d, want 1", k)
	}
	l, err := Lexicographic(costs, []int{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l != 2 {
		t.Errorf("lexicographic = %d, want 2", l)
	}
	s, err := WeightedSum([]float64{2, 4}, []float64{1, 1})
	if err != nil || s != 3 {
		t.Errorf("WeightedSum = %v, %v", s, err)
	}
}

func TestFacadeThreeCloudAndChaos(t *testing.T) {
	fed, err := NewThreeCloudFederation(72)
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Sites) != 3 {
		t.Fatalf("sites = %d", len(fed.Sites))
	}
	cal, err := Calibrate(fed, 0.004, 72)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NewScaledExecutor(fed, cal, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	flaky, err := NewFlakyExecutor(exec, 0.3, 72)
	if err != nil {
		t.Fatal(err)
	}
	retry, err := NewRetryingExecutor(flaky, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{Query: QueryQ13, JoinAtLeft: true, NodesLeft: 2, NodesRight: 2}
	out, err := retry.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.TimeS <= 0 {
		t.Fatal("degenerate outcome")
	}
}

func TestFacadeTPCHAndFullExecutor(t *testing.T) {
	db, err := GenerateTPCH(0.003, 73)
	if err != nil {
		t.Fatal(err)
	}
	if db.TotalBytes() <= 0 {
		t.Fatal("empty database")
	}
	fed, err := NewDefaultFederation(73)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewFullExecutor(fed, db)
	out, err := ex.Execute(Plan{Query: QueryQ14, JoinAtLeft: true, NodesLeft: 2, NodesRight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result == nil || len(out.Result.Rows) != 1 {
		t.Fatal("Q14 result missing")
	}
}

func TestFacadeProviders(t *testing.T) {
	for _, p := range []*Provider{Amazon(), Microsoft(), Google()} {
		if len(p.Instances) == 0 {
			t.Errorf("%s catalog empty", p.Name)
		}
	}
	if HiveProfile().Name != "hive" || PostgresProfile().Name != "postgres" || SparkProfile().Name != "spark" {
		t.Error("engine profiles misnamed")
	}
	if len(AllQueries) != 4 {
		t.Errorf("AllQueries = %v", AllQueries)
	}
}

func TestFacadeEvalHarness(t *testing.T) {
	h, err := NewEvalHarness(74)
	if err != nil {
		t.Fatal(err)
	}
	models, err := PaperModels(74)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(EvalConfig{Query: QueryQ17, SF: 0.05, HistorySize: 25, TestQueries: 8, Seed: 74}, models)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 5 {
		t.Errorf("scored %d models", len(res.Scores))
	}
}
