package federation

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/tpch"
)

func defaultFed(t *testing.T) *Federation {
	t.Helper()
	fed, err := DefaultTopology(1)
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	site := &Site{
		Name: "s", Provider: cloud.Amazon(), Engine: engine.Hive(),
		Instance: "a1.large", MaxNodes: 4, Load: cloud.NewLoadProcess(1),
	}
	if _, err := New(Config{Sites: []*Site{site, site}}); err == nil {
		t.Error("duplicate site accepted")
	}
	bad := *site
	bad.Name = "bad"
	bad.Instance = "nope"
	if _, err := New(Config{Sites: []*Site{&bad}}); !errors.Is(err, cloud.ErrUnknownInstance) {
		t.Errorf("got %v, want ErrUnknownInstance", err)
	}
	if _, err := New(Config{
		Sites:   []*Site{site},
		Catalog: map[string]string{"t": "missing"},
	}); !errors.Is(err, ErrUnknownSite) {
		t.Errorf("got %v, want ErrUnknownSite", err)
	}
	zeroCap := *site
	zeroCap.Name = "zc"
	zeroCap.MaxNodes = 0
	if _, err := New(Config{Sites: []*Site{&zeroCap}}); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestDefaultTopologyCrossSite(t *testing.T) {
	fed := defaultFed(t)
	for _, q := range tpch.AllQueries {
		lt, rt := q.Tables()
		ls, err := fed.SiteOf(lt)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := fed.SiteOf(rt)
		if err != nil {
			t.Fatal(err)
		}
		if ls.Name == rs.Name {
			t.Errorf("%v: both tables at %q — not a federation scenario", q, ls.Name)
		}
	}
	if _, err := fed.SiteOf("unmapped"); !errors.Is(err, ErrNoCatalogEntry) {
		t.Errorf("got %v, want ErrNoCatalogEntry", err)
	}
}

func TestEnumeratePlans(t *testing.T) {
	fed := defaultFed(t)
	plans, err := fed.EnumeratePlans(tpch.QueryQ12, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// 2 join sites × 3 left × 3 right = 18.
	if len(plans) != 18 {
		t.Fatalf("enumerated %d plans, want 18", len(plans))
	}
	seen := make(map[string]bool)
	for _, p := range plans {
		if seen[p.String()] {
			t.Errorf("duplicate plan %v", p)
		}
		seen[p.String()] = true
	}
	// Node choices above MaxNodes are skipped (postgres-azure caps at 4).
	plans, err = fed.EnumeratePlans(tpch.QueryQ12, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.NodesRight == 8 {
			t.Errorf("plan %v exceeds right-site capacity", p)
		}
	}
}

func TestFeatures(t *testing.T) {
	p := Plan{Query: tpch.QueryQ12, JoinAtLeft: true, NodesLeft: 4, NodesRight: 2}
	x := Features(p, 100*1024*1024, 10*1024*1024)
	if len(x) != FeatureDim {
		t.Fatalf("feature dim = %d, want %d", len(x), FeatureDim)
	}
	if math.Abs(x[0]-100) > 1e-9 || math.Abs(x[1]-10) > 1e-9 {
		t.Errorf("size features = %v, want [100 10 ...]", x[:2])
	}
	if x[2] != 4 || x[3] != 2 || x[4] != 1 {
		t.Errorf("features = %v", x)
	}
	p.JoinAtLeft = false
	if Features(p, 1, 1)[4] != 0 {
		t.Error("join_at_left indicator wrong")
	}
}

func smallDB(t *testing.T) *tpch.Database {
	t.Helper()
	db, err := tpch.Generate(0.005, tpch.GenOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFullExecutorAnswersMatchReference(t *testing.T) {
	fed := defaultFed(t)
	db := smallDB(t)
	ex := NewFullExecutor(fed, db)
	out, err := ex.Execute(Plan{Query: tpch.QueryQ14, JoinAtLeft: true, NodesLeft: 2, NodesRight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result == nil || len(out.Result.Rows) != 1 {
		t.Fatal("no result relation")
	}
	got := out.Result.Rows[0][0].(float64)
	want := tpch.Q14(db, tpch.DefaultQ14Params())
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Q14 via federation = %v, reference = %v", got, want)
	}
	if out.TimeS <= 0 || out.MoneyUSD <= 0 {
		t.Errorf("non-positive costs: %+v", out)
	}
}

func TestPlanChoiceChangesCostNotAnswer(t *testing.T) {
	fed := defaultFed(t)
	fed.NoiseStd = 0 // deterministic for the comparison
	db := smallDB(t)
	ex := NewFullExecutor(fed, db)
	a, err := ex.Execute(Plan{Query: tpch.QueryQ12, JoinAtLeft: true, NodesLeft: 4, NodesRight: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ex.Execute(Plan{Query: tpch.QueryQ12, JoinAtLeft: false, NodesLeft: 1, NodesRight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Result.Rows) != len(b.Result.Rows) {
		t.Fatal("different plans produced different answers")
	}
	for i := range a.Result.Rows {
		for j := range a.Result.Rows[i] {
			if a.Result.Rows[i][j] != b.Result.Rows[i][j] {
				t.Fatalf("row %d differs across plans", i)
			}
		}
	}
	if a.TimeS == b.TimeS && a.MoneyUSD == b.MoneyUSD {
		t.Error("different plans have identical costs — plan space is degenerate")
	}
}

func TestExecuteRejectsOverCapacityPlan(t *testing.T) {
	fed := defaultFed(t)
	ex := NewFullExecutor(fed, smallDB(t))
	if _, err := ex.Execute(Plan{Query: tpch.QueryQ12, NodesLeft: 99, NodesRight: 1}); err == nil {
		t.Error("over-capacity plan accepted")
	}
	if _, err := ex.Execute(Plan{Query: tpch.QueryQ12, NodesLeft: 1, NodesRight: 0}); err == nil {
		t.Error("zero-node plan accepted")
	}
}

func TestFullExecutorFeatures(t *testing.T) {
	fed := defaultFed(t)
	db := smallDB(t)
	ex := NewFullExecutor(fed, db)
	x, err := ex.Features(Plan{Query: tpch.QueryQ12, NodesLeft: 2, NodesRight: 1})
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := db.TableBytes("lineitem")
	if math.Abs(x[0]-lb/1024/1024) > 1e-9 {
		t.Errorf("left size feature = %v, want %v", x[0], lb/1024/1024)
	}
}

func TestCalibrationAndScaledExecutor(t *testing.T) {
	fed := defaultFed(t)
	fed.NoiseStd = 0
	cal, err := Calibrate(fed, 0.005, 21)
	if err != nil {
		t.Fatal(err)
	}
	// A scaled executor at the calibration SF must closely match a full
	// executor on the same-sized data (same seed).
	db, err := tpch.Generate(0.005, tpch.GenOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	full := NewFullExecutor(fed, db)
	scaled, err := NewScaledExecutor(fed, cal, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{Query: tpch.QueryQ12, JoinAtLeft: true, NodesLeft: 4, NodesRight: 2}
	fo, err := full.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	so, err := scaled.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Loads tick independently between the two executions, so compare
	// with a tolerant bound driven by the load clamp range.
	if so.TimeS <= 0 || fo.TimeS <= 0 {
		t.Fatal("non-positive times")
	}
	ratio := so.TimeS / fo.TimeS
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("scaled/full time ratio = %v — calibration drifted", ratio)
	}

	// Scaling up the SF must scale the data-dependent cost up.
	scaledBig, err := NewScaledExecutor(fed, cal, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	bo, err := scaledBig.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if bo.TimeS <= so.TimeS {
		t.Errorf("100x data did not increase time: %v vs %v", bo.TimeS, so.TimeS)
	}
	// Features scale linearly with SF.
	xs, err := scaled.Features(plan)
	if err != nil {
		t.Fatal(err)
	}
	xb, err := scaledBig.Features(plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(xb[0]/xs[0]-100) > 1 {
		t.Errorf("feature scaling = %v, want ≈100", xb[0]/xs[0])
	}
}

// TestInputSizerMatchesFeatures pins the promise a sweep batches on:
// rows laid out with AppendFeatures from InputBytes, converted to MiB
// once, are the executors' own per-plan feature vectors, bit for bit.
func TestInputSizerMatchesFeatures(t *testing.T) {
	fed := defaultFed(t)
	cal, err := Calibrate(fed, 0.005, 5)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := NewScaledExecutor(fed, cal, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, exec := range []Executor{scaled, NewFullExecutor(fed, smallDB(t))} {
		for _, q := range tpch.AllQueries {
			plans, err := fed.EnumeratePlans(q, []int{1, 2, 4})
			if err != nil {
				t.Fatal(err)
			}
			lb, rb, err := exec.(InputSizer).InputBytes(q)
			if err != nil {
				t.Fatal(err)
			}
			var rows []float64
			for _, p := range plans {
				rows = AppendFeatures(rows, p, lb/(1024*1024), rb/(1024*1024))
			}
			for i, p := range plans {
				x, err := exec.Features(p)
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range x {
					if math.Float64bits(v) != math.Float64bits(rows[i*FeatureDim+k]) {
						t.Fatalf("%T %v: feature %d = %v, row has %v", exec, p, k, v, rows[i*FeatureDim+k])
					}
				}
			}
		}
		if _, _, err := exec.(InputSizer).InputBytes(tpch.QueryID(99)); err == nil {
			t.Errorf("%T: sizes for an unknown query", exec)
		}
	}
}

func TestScaledExecutorValidation(t *testing.T) {
	fed := defaultFed(t)
	cal, err := Calibrate(fed, 0.005, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScaledExecutor(fed, cal, 0); err == nil {
		t.Error("zero SF accepted")
	}
	se, err := NewScaledExecutor(fed, cal, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Execute(Plan{Query: tpch.QueryID(99), NodesLeft: 1, NodesRight: 1}); err == nil {
		t.Error("uncalibrated query accepted")
	}
}

func TestOutcomeCostsOrder(t *testing.T) {
	o := &Outcome{TimeS: 12, MoneyUSD: 0.5}
	c := o.Costs()
	if c[0] != 12 || c[1] != 0.5 {
		t.Errorf("Costs = %v, want [12 0.5]", c)
	}
	if len(Metrics) != len(c) {
		t.Error("Metrics and Costs out of sync")
	}
}

func TestMoneyDependsOnClusterSize(t *testing.T) {
	fed := defaultFed(t)
	fed.NoiseStd = 0
	cal, err := Calibrate(fed, 0.005, 31)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewScaledExecutor(fed, cal, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := se.Execute(Plan{Query: tpch.QueryQ14, JoinAtLeft: true, NodesLeft: 1, NodesRight: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := se.Execute(Plan{Query: tpch.QueryQ14, JoinAtLeft: true, NodesLeft: 16, NodesRight: 1})
	if err != nil {
		t.Fatal(err)
	}
	// More nodes: faster (hive side parallelism) but the money/time
	// tradeoff must be real — the 16-node run must not be cheaper AND
	// slower-or-equal simultaneously; typically it is faster and more
	// expensive per active second.
	if big.TimeS >= small.TimeS {
		t.Errorf("16 nodes not faster: %v vs %v", big.TimeS, small.TimeS)
	}
}

func TestShippingAccounted(t *testing.T) {
	fed := defaultFed(t)
	fed.NoiseStd = 0
	ex := NewFullExecutor(fed, smallDB(t))
	out, err := ex.Execute(Plan{Query: tpch.QueryQ12, JoinAtLeft: true, NodesLeft: 2, NodesRight: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-site plan must ship bytes and spend transfer time.
	if out.ShippedBytes <= 0 {
		t.Error("no bytes shipped for a cross-site join")
	}
	if out.ShipTimeS <= 0 {
		t.Error("no ship time for a cross-site join")
	}
}
