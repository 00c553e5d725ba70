package midas

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/metrics"
	"repro/internal/moo"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each benchmark
// logs its rendered table once (go test -bench . -v shows them); the
// `midasctl` command prints the same tables standalone.

var logOnce sync.Map

func logTableOnce(b *testing.B, key string, t *experiments.Table) {
	b.Helper()
	if _, done := logOnce.LoadOrStore(key, true); !done {
		b.Log("\n" + t.Render())
	}
}

// BenchmarkTable1Pricing regenerates the instance-pricing catalog
// (paper Table 1).
func BenchmarkTable1Pricing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1Pricing()
		if len(t.Rows) != 11 {
			b.Fatalf("table 1 rows = %d", len(t.Rows))
		}
		logTableOnce(b, "t1", t)
	}
}

// BenchmarkTable2R2Growth recomputes R² versus window size on the
// paper's published dataset (paper Table 2).
func BenchmarkTable2R2Growth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table2R2()
		if err != nil {
			b.Fatal(err)
		}
		logTableOnce(b, "t2", t)
	}
}

// benchArtefact runs the experiments.Artefacts entry of that name per
// iteration — the computation `midasctl <name>` prints — on a small
// campaign.
func benchArtefact(b *testing.B, name string) {
	b.Helper()
	i := slices.IndexFunc(experiments.Artefacts, func(a experiments.Artefact) bool { return a.Name == name })
	if i < 0 {
		b.Fatalf("no artefact %q", name)
	}
	for n := 0; n < b.N; n++ {
		tables, err := experiments.Artefacts[i].Run(experiments.MREOptions{
			Reps: 3, HistorySize: 60, TestQueries: 30, Seed: int64(n) * 31,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			logTableOnce(b, t.Title, t)
		}
	}
}

// BenchmarkTable3MRE100MiB regenerates the MRE comparison at the
// paper's 100 MiB scale (paper Table 3).
func BenchmarkTable3MRE100MiB(b *testing.B) { benchArtefact(b, "table3") }

// BenchmarkTable4MRE1GiB regenerates the MRE comparison at the paper's
// 1 GiB scale (paper Table 4).
func BenchmarkTable4MRE1GiB(b *testing.B) { benchArtefact(b, "table4") }

// BenchmarkFig3MOQPApproaches contrasts GA-based MOQP and the exact
// sweep with repeated Weighted Sum Model optimization (paper Figure 3).
func BenchmarkFig3MOQPApproaches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := experiments.RunFig3(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		logTableOnce(b, "f3", t)
	}
}

// BenchmarkExample31PlanSpace measures estimation throughput over a
// large space of equivalent QEPs (paper Example 3.1).
func BenchmarkExample31PlanSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, t, err := experiments.RunExample31(experiments.Example31Options{Plans: 500, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		logTableOnce(b, "e31", t)
	}
}

// BenchmarkAblations runs the four design-choice ablations: window
// growth, R² threshold, recency and monolithic vs composite DREAM.
func BenchmarkAblations(b *testing.B) { benchArtefact(b, "ablations") }

// ---------------------------------------------------------------------------
// Micro-benchmarks of the core components.

// BenchmarkDREAMEstimate measures one Algorithm 1 call over a realistic
// federated history.
func BenchmarkDREAMEstimate(b *testing.B) {
	h, err := core.NewHistory(federation.FeatureDim, federation.Metrics...)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	for i := 0; i < 120; i++ {
		x := []float64{rng.Uniform(50, 150), rng.Uniform(5, 15), float64(rng.Intn(4) + 1), float64(rng.Intn(4) + 1), float64(rng.Intn(2))}
		costs := []float64{10 + 0.1*x[0] + rng.Normal(0, 2), 0.01 + 0.001*x[0]}
		if err := h.Append(core.Observation{X: x, Costs: costs}); err != nil {
			b.Fatal(err)
		}
	}
	est, err := core.NewEstimator(core.Config{MMax: 21})
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{100, 10, 2, 2, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateCostValue(h, x); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Cold window searches: Algorithm 1 with nothing amortized — no model
// cache, and data noisy enough that every search grows its window all
// the way to Mmax. This is the benchmark family the incremental
// shared-Gram search is judged (and regression-gated) on: ns/op must
// scale linearly in M, and allocs/op must stay flat as the window
// grows (the fitter pool makes steady-state growth allocation-free).

// benchWindowSearchCold measures one full uncached window search over
// l features with the window forced to grow from l+2 to mmax.
func benchWindowSearchCold(b *testing.B, l, mmax int) {
	b.Helper()
	h, err := core.NewHistory(l, "time_s", "money_usd")
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	for i := 0; i < mmax+8; i++ {
		x := make([]float64, l)
		var base float64
		for j := range x {
			x[j] = rng.Uniform(0, 10)
			base += x[j]
		}
		costs := []float64{base + rng.Normal(0, 50), 0.1*base + rng.Normal(0, 5)}
		if err := h.Append(core.Observation{X: x, Costs: costs}); err != nil {
			b.Fatal(err)
		}
	}
	// RequiredR2 = 1 is unreachable on noisy data, so every call
	// deterministically pays the full growth loop to Mmax — the
	// worst-case search. (A realistic 0.8 threshold can converge at the
	// minimal window by overfitting luck: with m barely above L+2 the
	// fit has almost no residual degrees of freedom.)
	est, err := core.NewEstimator(core.Config{RequiredR2: 1, MMax: mmax, CacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, l)
	for j := range x {
		x[j] = 5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est2, err := est.EstimateCostValue(h, x)
		if err != nil {
			b.Fatal(err)
		}
		if est2.WindowSize != mmax {
			b.Fatalf("window stopped at %d, want full growth to %d", est2.WindowSize, mmax)
		}
	}
}

// BenchmarkWindowSearchCold spans feature dimension (L2 vs L6) and
// window cap (M32 vs M256); the M256 cases are where the legacy
// quadratic loop drowned.
func BenchmarkWindowSearchCold(b *testing.B) {
	for _, c := range []struct {
		name    string
		l, mmax int
	}{
		{"L2/M32", 2, 32},
		{"L2/M256", 2, 256},
		{"L6/M32", 6, 32},
		{"L6/M256", 6, 256},
	} {
		b.Run(c.name, func(b *testing.B) { benchWindowSearchCold(b, c.l, c.mmax) })
	}
}

// BenchmarkWindowSearchServed is one uncached window search at the
// serving shape: the five plan features of one query (its two table
// sizes constant), the paper's R² bar of 0.8, Mmax = 3·(L+2) = 21, over
// the history a served 2,048-plan lattice accumulates — 20 bootstrap
// executions, then the plans three weightings keep choosing. The
// constant size columns make every plain window singular, so every
// search takes the ridge fallback (ridged/op), unlike WindowSearchCold's
// non-collinear data; and the bar ends most growth rounds at the first
// metric below it. Each op searches the history as it stood after one
// of the served requests.
func BenchmarkWindowSearchServed(b *testing.B) {
	fed, err := federation.WideTopology(1, 32)
	if err != nil {
		b.Fatal(err)
	}
	cal, err := federation.Calibrate(fed, 0.004, 1)
	if err != nil {
		b.Fatal(err)
	}
	exec, err := federation.NewScaledExecutor(fed, cal, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	const mmax = 3 * (federation.FeatureDim + 2)
	model, err := ires.NewDREAMModel(core.Config{MMax: mmax})
	if err != nil {
		b.Fatal(err)
	}
	sched, err := ires.NewSchedulerWithConfig(fed, exec, model, ires.SchedulerConfig{NodeChoices: federation.NodeRange(32), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := sched.Bootstrap(tpch.QueryQ12, 20); err != nil {
		b.Fatal(err)
	}
	var snaps []*core.Snapshot
	var xs [][]float64
	for i := 0; i < 60; i++ {
		d, err := sched.Submit(tpch.QueryQ12, ires.Policy{Weights: [][]float64{{1, 0}, {0, 1}, {1, 1}}[i%3]})
		if err != nil {
			b.Fatal(err)
		}
		x, err := exec.Features(d.Plan)
		if err != nil {
			b.Fatal(err)
		}
		snaps, xs = append(snaps, sched.History(tpch.QueryQ12).Snapshot()), append(xs, x)
	}
	est, err := core.NewEstimator(core.Config{RequiredR2: core.DefaultRequiredR2, MMax: mmax, CacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	var window, ridged int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := est.EstimateSnapshot(snaps[i%len(snaps)], xs[i%len(xs)])
		if err != nil {
			b.Fatal(err)
		}
		window += e.WindowSize
		if e.Metrics[0].Model.Ridge > 0 {
			ridged++
		}
	}
	b.ReportMetric(float64(window)/float64(b.N), "window/op")
	b.ReportMetric(float64(ridged)/float64(b.N), "ridged/op")
}

// ---------------------------------------------------------------------------
// Plan-space estimation (paper Example 3.1): sweep every enumerated QEP
// of a query through the Modelling module and reduce it to its Pareto
// set.

// benchWidePlanSweep measures one warm PlanSweep over a WideTopology
// lattice of 2·maxNodes² QEPs. The model cache is warmed outside the
// timer, so the measurement isolates the per-plan estimation work and
// the Pareto reduction; candidates/op is how many cost vectors the
// reduction examined (midas_pareto_candidates_total), the whole lattice
// unless it read the front from the lattice's row ends. Each sweep is
// released as a server releases it, so the next reuses its storage.
func benchWidePlanSweep(b *testing.B, maxNodes int) {
	b.Helper()
	reg := metrics.NewRegistry()
	sched := wideScheduler(b, 1, maxNodes, 0.05, reg)
	ctx := context.Background()
	sw, err := sched.PlanSweep(ctx, tpch.QueryQ12)
	if err != nil {
		b.Fatal(err)
	}
	sched.ReleaseSweep(sw)
	before := candidates(b, reg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := sched.PlanSweep(ctx, tpch.QueryQ12)
		if err != nil {
			b.Fatal(err)
		}
		sched.ReleaseSweep(sw)
	}
	b.StopTimer()
	b.ReportMetric((candidates(b, reg)-before)/float64(b.N), "candidates/op")
}

// candidates scrapes reg for the Q12 Pareto candidates a scheduler
// instrumented on it has counted.
func candidates(b *testing.B, reg *metrics.Registry) float64 {
	b.Helper()
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		b.Fatal(err)
	}
	sc, err := metrics.ParseText(strings.NewReader(text.String()))
	if err != nil {
		b.Fatal(err)
	}
	return sc.Values[`midas_pareto_candidates_total{federation="default",query="Q12"}`]
}

// wideScheduler assembles a DREAM scheduler over WideTopology(seed,
// maxNodes) + NodeRange(maxNodes) — 2·maxNodes² QEPs — with a scaled
// executor at the given scale factor and a 24-observation Q12 history,
// instrumented on reg unless it is nil.
func wideScheduler(b testing.TB, seed int64, maxNodes int, scale float64, reg *metrics.Registry) *ires.Scheduler {
	b.Helper()
	fed, err := federation.WideTopology(seed, maxNodes)
	if err != nil {
		b.Fatal(err)
	}
	cal, err := federation.Calibrate(fed, 0.004, seed)
	if err != nil {
		b.Fatal(err)
	}
	exec, err := federation.NewScaledExecutor(fed, cal, scale)
	if err != nil {
		b.Fatal(err)
	}
	model, err := ires.NewDREAMModel(core.Config{MMax: 3 * (federation.FeatureDim + 2)})
	if err != nil {
		b.Fatal(err)
	}
	sched, err := ires.NewSchedulerWithConfig(fed, exec, model, ires.SchedulerConfig{
		NodeChoices: federation.NodeRange(maxNodes),
		Seed:        seed,
		Metrics:     reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sched.Bootstrap(tpch.QueryQ12, 24); err != nil {
		b.Fatal(err)
	}
	return sched
}

// BenchmarkPlanSweep is the full sweep over the lattice sizes that
// matter: P128, the largest lattice midasd can serve; P2048, the
// end-to-end benchmark's sweep tenant; P8192; and P18432, the paper's
// Example 3.1 regime. docs/performance.md publishes the grid.
func BenchmarkPlanSweep(b *testing.B) {
	for _, sz := range []struct {
		name     string
		maxNodes int
	}{
		{"P128", 8},
		{"P2048", 32},
		{"P8192", 64},
		{"P18432", 96},
	} {
		b.Run("Full/"+sz.name, func(b *testing.B) {
			benchWidePlanSweep(b, sz.maxNodes)
		})
	}
}

// BenchmarkSweepRound is one whole serving cycle on the 2,048-plan
// lattice (WideTopology(42, 32) over NodeRange(32), the end-to-end
// benchmark's sweep tenant): PlanSweep, then DecideFromSweep, whose
// recorded execution bumps the history version — so, unlike
// BenchmarkPlanSweep's warm sweeps, every iteration pays one window
// search next to its 2,048 predictions and the Pareto reduction — then
// ReleaseSweep, so the next round reuses the matrix as a server's does.
func BenchmarkSweepRound(b *testing.B) {
	sched := wideScheduler(b, 42, 32, 0.1, nil)
	ctx := context.Background()
	pol := ires.Policy{Weights: []float64{1, 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := sched.PlanSweep(ctx, tpch.QueryQ12)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sched.DecideFromSweep(sw, pol); err != nil {
			b.Fatal(err)
		}
		sched.ReleaseSweep(sw)
	}
}

// BenchmarkNSGAIIZdt1 measures the optimizer on the standard ZDT1
// benchmark problem.
func BenchmarkNSGAIIZdt1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := moo.NSGAII(zdt1Bench{dim: 8}, moo.NSGAIIConfig{
			PopSize: 40, Generations: 20, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

type zdt1Bench struct{ dim int }

func (z zdt1Bench) Bounds() (lo, hi []float64) {
	lo = make([]float64, z.dim)
	hi = make([]float64, z.dim)
	for i := range hi {
		hi[i] = 1
	}
	return lo, hi
}

func (z zdt1Bench) Evaluate(x []float64) []float64 {
	f1 := x[0]
	g := 1.0
	for _, v := range x[1:] {
		g += 9 * v / float64(z.dim-1)
	}
	h := 1 - math.Sqrt(f1/g)
	return []float64{f1, g * h}
}

// BenchmarkFederatedQ12Execution measures one full relational execution
// of Q12 across the federation at SF 0.005.
func BenchmarkFederatedQ12Execution(b *testing.B) {
	fed, err := federation.DefaultTopology(1)
	if err != nil {
		b.Fatal(err)
	}
	db, err := tpch.Generate(0.005, tpch.GenOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ex := federation.NewFullExecutor(fed, db)
	plan := federation.Plan{Query: tpch.QueryQ12, JoinAtLeft: true, NodesLeft: 2, NodesRight: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Execute(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaledExecution measures the statistics-replay executor used
// by the paper-scale experiments.
func BenchmarkScaledExecution(b *testing.B) {
	fed, err := federation.DefaultTopology(1)
	if err != nil {
		b.Fatal(err)
	}
	cal, err := federation.Calibrate(fed, 0.004, 1)
	if err != nil {
		b.Fatal(err)
	}
	ex, err := federation.NewScaledExecutor(fed, cal, 1)
	if err != nil {
		b.Fatal(err)
	}
	plan := federation.Plan{Query: tpch.QueryQ12, JoinAtLeft: true, NodesLeft: 2, NodesRight: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Execute(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalRound measures one full workload evaluation round
// (seed + test + scoring) for a single model at small size.
func BenchmarkEvalRound(b *testing.B) {
	h, err := workload.NewHarness(1)
	if err != nil {
		b.Fatal(err)
	}
	models, err := workload.PaperModels(1)
	if err != nil {
		b.Fatal(err)
	}
	dreamOnly := models[len(models)-1:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Run(workload.EvalConfig{
			Query: tpch.QueryQ12, SF: 0.1, HistorySize: 30, TestQueries: 10, Seed: int64(i),
		}, dreamOnly); err != nil {
			b.Fatal(err)
		}
	}
}
