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

// fullCostUnder is what ScaledExecutor.CostUnder is for a full
// execution: p's measured pieces priced under env.
func fullCostUnder(t *testing.T, ex *FullExecutor, p Plan, env Env) *Outcome {
	t.Helper()
	_, pc, err := ex.run(p.Query)
	if err != nil {
		t.Fatal(err)
	}
	left, right, err := ex.Fed.sites(p)
	if err != nil {
		t.Fatal(err)
	}
	return ex.Fed.costUnder(p, left, right, pc, env)
}

func TestPlanChoiceChangesCostNotAnswer(t *testing.T) {
	fed := defaultFed(t)
	db := smallDB(t)
	ex := NewFullExecutor(fed, db)
	pa := Plan{Query: tpch.QueryQ12, JoinAtLeft: true, NodesLeft: 4, NodesRight: 1}
	pb := Plan{Query: tpch.QueryQ12, JoinAtLeft: false, NodesLeft: 1, NodesRight: 1}
	a, err := ex.Execute(pa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ex.Execute(pb)
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
	// Under one shared environment, without noise, only the plans differ.
	env := a.Env.Noiseless()
	ca, cb := fullCostUnder(t, ex, pa, env), fullCostUnder(t, ex, pb, env)
	if ca.TimeS == cb.TimeS && ca.MoneyUSD == cb.MoneyUSD {
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
	// Under the full execution's own environment, the scaled replay
	// differs from it only by the statistics' rescaling.
	so, err := scaled.CostUnder(plan, fo.Env)
	if err != nil {
		t.Fatal(err)
	}
	if so.TimeS <= 0 || fo.TimeS <= 0 {
		t.Fatal("non-positive times")
	}
	for _, c := range [][2]float64{{so.TimeS, fo.TimeS}, {so.MoneyUSD, fo.MoneyUSD}} {
		if ratio := c[0] / c[1]; math.Abs(ratio-1) > 1e-6 {
			t.Errorf("scaled/full cost ratio = %v — calibration drifted", ratio)
		}
	}

	// Scaling up the SF must scale the data-dependent cost up.
	scaledBig, err := NewScaledExecutor(fed, cal, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	bo, err := scaledBig.CostUnder(plan, fo.Env)
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
	cal, err := Calibrate(fed, 0.005, 31)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewScaledExecutor(fed, cal, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pSmall := Plan{Query: tpch.QueryQ14, JoinAtLeft: true, NodesLeft: 1, NodesRight: 1}
	pBig := Plan{Query: tpch.QueryQ14, JoinAtLeft: true, NodesLeft: 16, NodesRight: 1}
	drawn, err := se.Execute(pSmall)
	if err != nil {
		t.Fatal(err)
	}
	// Both plans under one environment, without noise: the cluster size
	// is the only difference.
	env := drawn.Env.Noiseless()
	small, err := se.CostUnder(pSmall, env)
	if err != nil {
		t.Fatal(err)
	}
	big, err := se.CostUnder(pBig, env)
	if err != nil {
		t.Fatal(err)
	}
	// More nodes: faster (hive side parallelism) but dearer — sixteen
	// VMs bill more per busy second than the time they save.
	if big.TimeS >= small.TimeS {
		t.Errorf("16 nodes not faster: %v vs %v", big.TimeS, small.TimeS)
	}
	if big.MoneyUSD <= small.MoneyUSD {
		t.Errorf("16 nodes not dearer: $%v vs $%v", big.MoneyUSD, small.MoneyUSD)
	}
}

func TestShippingAccounted(t *testing.T) {
	fed := defaultFed(t)
	ex := NewFullExecutor(fed, smallDB(t))
	p := Plan{Query: tpch.QueryQ12, JoinAtLeft: true, NodesLeft: 2, NodesRight: 1}
	drawn, err := ex.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	// Without noise, the shipping time is the link's transfer time: the
	// right (orders) site ships to the left (lineitem) one.
	out := fullCostUnder(t, ex, p, drawn.Env.Noiseless())
	if want := fed.link("postgres-azure", "hive-aws").TransferTime(out.ShippedBytes); out.ShipTimeS != want {
		t.Errorf("noiseless ship time %v, want the link's %v", out.ShipTimeS, want)
	}
	// Cross-site plan must ship bytes and spend transfer time.
	if out.ShippedBytes <= 0 {
		t.Error("no bytes shipped for a cross-site join")
	}
	if out.ShipTimeS <= 0 {
		t.Error("no ship time for a cross-site join")
	}
}

// TestNewRejectsBadLinks: a link no transfer can cross in finite time,
// or one between sites the federation does not have, is refused at
// construction — not found later as a +Inf ship time History refuses.
func TestNewRejectsBadLinks(t *testing.T) {
	site := func(name string) *Site {
		return &Site{
			Name: name, Provider: cloud.Amazon(), Engine: engine.Hive(),
			Instance: "a1.large", MaxNodes: 4, Load: cloud.NewLoadProcess(1),
		}
	}
	good := cloud.Link{BandwidthMiBps: 100, LatencyS: 0.05}
	for _, tc := range []struct {
		name        string
		links       map[string]cloud.Link
		defaultLink cloud.Link
		ok          bool
	}{
		{name: "valid", links: map[string]cloud.Link{"a→b": good, "b→a": {BandwidthMiBps: 1}}, ok: true},
		{name: "valid-default", defaultLink: good, ok: true},
		{name: "zero-bandwidth", links: map[string]cloud.Link{"a→b": {LatencyS: 0.05}}},
		{name: "negative-bandwidth", links: map[string]cloud.Link{"a→b": {BandwidthMiBps: -1}}},
		{name: "nan-bandwidth", links: map[string]cloud.Link{"a→b": {BandwidthMiBps: math.NaN()}}},
		{name: "inf-bandwidth", links: map[string]cloud.Link{"a→b": {BandwidthMiBps: math.Inf(1)}}},
		{name: "negative-latency", links: map[string]cloud.Link{"a→b": {BandwidthMiBps: 100, LatencyS: -0.01}}},
		{name: "nan-latency", links: map[string]cloud.Link{"a→b": {BandwidthMiBps: 100, LatencyS: math.NaN()}}},
		{name: "inf-latency", links: map[string]cloud.Link{"a→b": {BandwidthMiBps: 100, LatencyS: math.Inf(1)}}},
		{name: "unknown-from", links: map[string]cloud.Link{"x→b": good}},
		{name: "unknown-to", links: map[string]cloud.Link{"a→x": good}},
		{name: "not-a-pair", links: map[string]cloud.Link{"a-b": good}},
		{name: "bad-default", defaultLink: cloud.Link{LatencyS: 0.05}},
		{name: "negative-default-latency", defaultLink: cloud.Link{BandwidthMiBps: 100, LatencyS: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(Config{
				Sites:       []*Site{site("a"), site("b")},
				Links:       tc.links,
				DefaultLink: tc.defaultLink,
			})
			if tc.ok && err != nil {
				t.Fatalf("valid links refused: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("bad link accepted")
			}
		})
	}
}

// TestPriceSpikeScalesMoney: a price spike at both sites reaches an
// execution's money through its environment, compute and egress alike,
// and leaves its times alone.
func TestPriceSpikeScalesMoney(t *testing.T) {
	fed := defaultFed(t)
	cal, err := Calibrate(fed, CalibrationSF, 1)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewScaledExecutor(fed, cal, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	prof := cloud.ChaosProfile{Name: "always-spike", SpikeProb: 1, SpikeMinT: 10, SpikeMaxT: 10, SpikeFactor: 3}
	chaos := cloud.NewChaos(prof, 5)
	for _, site := range fed.Sites {
		sc := chaos.Site(site.Name)
		site.Load.AttachChaos(sc)
		site.Provider.AttachChaos(sc)
	}
	for _, p := range []Plan{
		{Query: tpch.QueryQ12, JoinAtLeft: true, NodesLeft: 4, NodesRight: 2},
		{Query: tpch.QueryQ14, JoinAtLeft: false, NodesLeft: 16, NodesRight: 1},
	} {
		spiked, err := se.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if spiked.Env.PriceLeft != 3 || spiked.Env.PriceRight != 3 {
			t.Fatalf("%v: drew prices %v/%v inside a ×3 spike", p, spiked.Env.PriceLeft, spiked.Env.PriceRight)
		}
		calm := spiked.Env
		calm.PriceLeft, calm.PriceRight = 1, 1
		base, err := se.CostUnder(p, calm)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := spiked.MoneyUSD, 3*base.MoneyUSD; math.Abs(got-want) > 1e-12*want {
			t.Errorf("%v: spiked money $%v, want 3 × $%v", p, got, base.MoneyUSD)
		}
		if spiked.TimeS != base.TimeS {
			t.Errorf("%v: the spike moved the time: %v vs %v", p, spiked.TimeS, base.TimeS)
		}
	}
}
