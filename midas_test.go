package midas

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/ml"
	"repro/internal/moo"
	"repro/internal/regression"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// These smoke tests drive each subsystem end to end through the
// packages that implement it, the way the examples do.

func TestFullPipeline(t *testing.T) {
	fed, err := federation.DefaultTopology(71)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := federation.Calibrate(fed, 0.004, 71)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := federation.NewScaledExecutor(fed, cal, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := ires.NewDREAMModel(core.Config{MMax: 3 * (federation.FeatureDim + 2)})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := ires.NewScheduler(fed, exec, model, nil, 71)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Bootstrap(tpch.QueryQ12, 20); err != nil {
		t.Fatal(err)
	}
	dec, err := sched.Submit(tpch.QueryQ12, ires.Policy{Weights: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome.TimeS <= 0 || dec.Outcome.MoneyUSD < 0 {
		t.Fatalf("degenerate outcome %+v", dec.Outcome)
	}
	if len(dec.Estimated) != len(federation.Metrics) {
		t.Fatalf("estimate dim %d", len(dec.Estimated))
	}
}

// TestSchedulerWithConfig drives the config-assembled scheduler: model
// cache on, and a history snapshot taken mid-run.
func TestSchedulerWithConfig(t *testing.T) {
	fed, err := federation.DefaultTopology(19)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := federation.Calibrate(fed, 0.004, 19)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := federation.NewScaledExecutor(fed, cal, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := ires.NewDREAMModel(core.Config{MMax: 3 * (federation.FeatureDim + 2), CacheSize: core.DefaultCacheSize})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := ires.NewSchedulerWithConfig(fed, exec, model, ires.SchedulerConfig{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Bootstrap(tpch.QueryQ12, 20); err != nil {
		t.Fatal(err)
	}
	dec, err := sched.Submit(tpch.QueryQ12, ires.Policy{Weights: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Outcome.TimeS <= 0 {
		t.Fatalf("degenerate outcome %+v", dec.Outcome)
	}
	var snap *core.Snapshot = sched.History(tpch.QueryQ12).Snapshot()
	if snap.Len() != 21 { // 20 bootstrap runs + 1 submitted round
		t.Fatalf("snapshot Len = %d, want 21", snap.Len())
	}
	hits, misses := model.Est.CacheStats()
	if hits+misses == 0 {
		t.Fatal("model cache never consulted")
	}
}

func TestDREAMAndPersistence(t *testing.T) {
	h, err := core.NewHistory(1, "time_s")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		x := float64(i%7 + 1)
		if err := h.Append(core.Observation{X: []float64{x}, Costs: []float64{3 * x}}); err != nil {
			t.Fatal(err)
		}
	}
	est, err := core.NewEstimator(core.Config{RequiredR2: core.DefaultRequiredR2})
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
	if err := core.SaveSnapshot(h.Snapshot(), &buf); err != nil {
		t.Fatal(err)
	}
	h2, err := core.LoadHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Len() != h.Len() {
		t.Fatalf("round-trip lost observations: %d vs %d", h2.Len(), h.Len())
	}
}

func TestLearners(t *testing.T) {
	samples := make([]regression.Sample, 40)
	for i := range samples {
		x := float64(i%9 + 1)
		samples[i] = regression.Sample{X: []float64{x}, C: 2 + 5*x}
	}
	for _, l := range []ml.Learner{ml.LeastSquares{}, ml.Bagging{Seed: 1}, ml.MLP{Seed: 1, Epochs: 100}, ml.BML{Seed: 1}} {
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
	m, err := regression.Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	if m.R2 < 0.999 {
		t.Errorf("MLR R² = %v on exact data", m.R2)
	}
}

func TestMOO(t *testing.T) {
	costs := [][]float64{{1, 9}, {3, 3}, {9, 1}, {9, 9}}
	m, err := moo.NewCostMatrix(costs)
	if err != nil {
		t.Fatal(err)
	}
	front, err := moo.ParetoFront(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 3 {
		t.Errorf("front = %v, want 3 members", front)
	}
	k, err := moo.KneePoint(costs[:3])
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Errorf("knee = %d, want 1", k)
	}
	l, err := moo.Lexicographic(costs, []int{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l != 2 {
		t.Errorf("lexicographic = %d, want 2", l)
	}
	s, err := moo.WeightedSum([]float64{2, 4}, []float64{1, 1})
	if err != nil || s != 3 {
		t.Errorf("WeightedSum = %v, %v", s, err)
	}
}

func TestThreeCloud(t *testing.T) {
	fed, err := federation.ThreeCloudTopology(72)
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Sites) != 3 {
		t.Fatalf("sites = %d", len(fed.Sites))
	}
	cal, err := federation.Calibrate(fed, 0.004, 72)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := federation.NewScaledExecutor(fed, cal, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	plan := federation.Plan{Query: tpch.QueryQ13, JoinAtLeft: true, NodesLeft: 2, NodesRight: 2}
	out, err := exec.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.TimeS <= 0 {
		t.Fatal("degenerate outcome")
	}
}

func TestTPCHAndFullExecutor(t *testing.T) {
	db, err := tpch.Generate(0.003, tpch.GenOptions{Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	if db.TotalBytes() <= 0 {
		t.Fatal("empty database")
	}
	fed, err := federation.DefaultTopology(73)
	if err != nil {
		t.Fatal(err)
	}
	ex := federation.NewFullExecutor(fed, db)
	out, err := ex.Execute(federation.Plan{Query: tpch.QueryQ14, JoinAtLeft: true, NodesLeft: 2, NodesRight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result == nil || len(out.Result.Rows) != 1 {
		t.Fatal("Q14 result missing")
	}
}

func TestProviders(t *testing.T) {
	for _, p := range []*cloud.Provider{cloud.Amazon(), cloud.Microsoft(), cloud.Google()} {
		if len(p.Instances) == 0 {
			t.Errorf("%s catalog empty", p.Name)
		}
	}
	if engine.Hive().Name != "hive" || engine.Postgres().Name != "postgres" || engine.Spark().Name != "spark" {
		t.Error("engine profiles misnamed")
	}
	if len(tpch.AllQueries) != 4 {
		t.Errorf("AllQueries = %v", tpch.AllQueries)
	}
}

func TestEvalHarness(t *testing.T) {
	h, err := workload.NewHarness(74)
	if err != nil {
		t.Fatal(err)
	}
	models, err := workload.PaperModels(74)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(workload.EvalConfig{Query: tpch.QueryQ17, SF: 0.05, HistorySize: 25, TestQueries: 8, Seed: 74}, models)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 5 {
		t.Errorf("scored %d models", len(res.Scores))
	}
}
