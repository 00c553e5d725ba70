package server

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/regression"
	"repro/internal/tpch"
)

func TestLoadSpecsWrappedAndBare(t *testing.T) {
	wrapped := `{"federations": [{"name": "a", "sf": 0.2}, {"name": "b", "topology": "threecloud"}]}`
	specs, err := LoadSpecs(strings.NewReader(wrapped))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "a" || specs[0].SF != 0.2 || specs[1].Topology != "threecloud" {
		t.Fatalf("wrapped parse: %+v", specs)
	}

	bare := `[{"name": "solo", "queries": ["Q12", "Q14"]}]`
	specs, err = LoadSpecs(strings.NewReader(bare))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || len(specs[0].Queries) != 2 {
		t.Fatalf("bare parse: %+v", specs)
	}

	if _, err := LoadSpecs(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage config should error")
	}
}

// TestLoadSpecsRejectsUnknownKeys: a key the spec does not have fails
// the load in both config shapes — a typo must not boot a default
// tenant, and a config written for a build that still had the prune,
// cache-size and calibration knobs must not lose them silently.
func TestLoadSpecsRejectsUnknownKeys(t *testing.T) {
	for _, kv := range [][2]string{
		{"node_choises", `[1, 2, 4, 8]`},
		{"prune_policy", `"greedy"`},
		{"prune_budget", `64`},
		{"cache_size", `-1`},
		{"calib_sf", `0.004`},
	} {
		spec := fmt.Sprintf(`{"name": "a", %q: %s}`, kv[0], kv[1])
		for shape, doc := range map[string]string{
			"bare":    `[` + spec + `]`,
			"wrapped": `{"federations": [` + spec + `]}`,
		} {
			_, err := LoadSpecs(strings.NewReader(doc))
			if err == nil || !strings.Contains(err.Error(), kv[0]) {
				t.Errorf("%s config %s: err = %v, want one naming the key", shape, doc, err)
			}
		}
	}
	if _, err := LoadSpecs(strings.NewReader(`{"federations": [{"name": "a"}], "federation": []}`)); err == nil {
		t.Error("unknown top-level key accepted")
	}
	if _, err := LoadSpecs(strings.NewReader(`[{"name": "a"}] [{"name": "b"}]`)); err == nil {
		t.Error("a second document after the config accepted")
	}
}

func TestSpecDefaults(t *testing.T) {
	sp := (&FederationSpec{Name: "x"}).withDefaults()
	if sp.Topology != "default" || sp.SF != 0.1 || sp.Bootstrap != 20 {
		t.Fatalf("defaults: %+v", sp)
	}
	qs, err := sp.queries()
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 4 {
		t.Fatalf("default queries: %v", qs)
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := buildTenant(FederationSpec{}, StoreConfig{}, nil, nil, nil); err == nil {
		t.Fatal("nameless spec should error")
	}
	if _, err := buildTenant(FederationSpec{Name: "x", Topology: "mars"}, StoreConfig{}, nil, nil, nil); err == nil {
		t.Fatal("unknown topology should error")
	}
	if _, err := buildTenant(FederationSpec{Name: "x", Queries: []string{"Q1"}}, StoreConfig{}, nil, nil, nil); err == nil {
		t.Fatal("unstudied query should error")
	}
	// A bootstrap too short for one regression fit would boot a tenant
	// whose every submission fails (0 still means the default).
	least := regression.MinObservations(federation.FeatureDim)
	for _, n := range []int{-1, 1, least - 1} {
		_, err := buildTenant(FederationSpec{Name: "x", Bootstrap: n}, StoreConfig{}, nil, nil, nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("minimum %d", least)) {
			t.Errorf("bootstrap %d: err = %v, want one naming the minimum %d", n, err, least)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config should error")
	}
	// Duplicate names must surface as an error before any tenant (and
	// its per-federation metric series) is built — not as a duplicate-
	// collector panic from the second twin's registration.
	if _, err := New(Config{Federations: []FederationSpec{{Name: "twin"}, {Name: "twin"}}}); err == nil ||
		!strings.Contains(err.Error(), "duplicate federation") {
		t.Fatalf("duplicate names: got %v, want duplicate-federation error", err)
	}
	if _, err := NewWithSchedulers(Config{}, nil, nil); err == nil {
		t.Fatal("no schedulers should error")
	}
}

// TestServedLatticeBound pins the traffic fact midasd's configuration
// surface rests on: whatever -node-choices says, no topology a spec can
// name reaches a lattice of more than 256 plans, so every request's
// sweep of the whole lattice stays in the microseconds
// docs/performance.md measures and the daemon has no knob to shrink it.
func TestServedLatticeBound(t *testing.T) {
	for name, topology := range topologies {
		fed, err := topology(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range tpch.AllQueries {
			lat, err := fed.PlanLattice(q, federation.NodeRange(64))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s %v: %d plans", name, q, lat.Size())
			if lat.Size() > 256 {
				t.Errorf("%s %v: a -node-choices menu reaches %d plans, past 256: "+
					"a wider served topology needs the served sweep re-measured at its size", name, q, lat.Size())
			}
		}
	}
}

// TestCalibrationMemoDecidesIdentically: New calibrates once per seed,
// not once per tenant. Two specs sharing it — on different topologies,
// since the claim is that calibration reads none of it — must decide
// byte-identically whether the second reuses the first's calibration or
// pays for its own.
func TestCalibrationMemoDecidesIdentically(t *testing.T) {
	specs := []FederationSpec{
		{Name: "a", Queries: []string{"Q12"}, Bootstrap: 12},
		{Name: "b", Topology: "threecloud", Queries: []string{"Q12"}, Bootstrap: 12},
	}
	run := func(calibs calibrations) string {
		var out strings.Builder
		for _, sp := range specs {
			tn, err := buildTenant(sp, StoreConfig{}, nil, nil, calibs)
			if err != nil {
				t.Fatal(err)
			}
			if err := activateTenant(tn, nil); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				sw, err := tn.sched.PlanSweep(context.Background(), tpch.QueryQ12)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := tn.sched.DecideFromSweep(sw, ires.Policy{Weights: []float64{1, 1}})
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "%s %+v %v %+v\n", sp.Name, dec.Plan, dec.Estimated, *dec.Outcome)
			}
		}
		return out.String()
	}
	memo := make(calibrations)
	with, without := run(memo), run(nil)
	if len(memo) != 1 {
		t.Fatalf("memo holds %d calibrations for two specs sharing a seed, want 1", len(memo))
	}
	if with != without {
		t.Fatalf("decisions differ with the memo:\n%s\nwithout:\n%s", with, without)
	}
}
