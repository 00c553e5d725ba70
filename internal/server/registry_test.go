package server

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
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
	// The calibration plan skips a spec whose queries do not resolve;
	// building it still reports them.
	bad := []FederationSpec{{Name: "ok", Queries: []string{"Q12"}, Bootstrap: 12}, {Name: "x", Queries: []string{"Q1"}}}
	if _, err := New(Config{Federations: bad}); err == nil ||
		err.Error() != `server: federation "x": tpch: unknown query "Q1" (studied: Q12, Q13, Q14, Q17)` {
		t.Fatalf("unstudied query in New: err = %v", err)
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

// TestNewCalibrationsUnion: each seed is calibrated once, for the union
// of the queries its specs serve, in the order they first appear; a spec
// that names no query serves all four.
func TestNewCalibrationsUnion(t *testing.T) {
	calibs := newCalibrations([]FederationSpec{
		{Name: "a", Queries: []string{"Q14"}},
		{Name: "b", Queries: []string{"Q12", "Q14"}},
		{Name: "c", Seed: 7},
		{Name: "d", Seed: 9, Queries: []string{"Q1"}},
	})
	want := map[int64][]tpch.QueryID{
		42: {tpch.QueryQ14, tpch.QueryQ12},
		7:  tpch.AllQueries,
	}
	if len(calibs) != len(want) {
		t.Fatalf("%d seeds planned, want %d", len(calibs), len(want))
	}
	for seed, qs := range want {
		if sc := calibs[seed]; sc == nil || !slices.Equal(sc.queries, qs) || sc.cal != nil {
			t.Errorf("seed %d: planned %+v, want %v and nothing calibrated yet", seed, sc, qs)
		}
	}
}

// TestCalibrationMemoDecidesIdentically: New calibrates once per seed,
// not once per tenant, and only the queries the seed's specs serve. Two
// specs sharing it — on different topologies,
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
	memo := newCalibrations(specs)
	with, without := run(memo), run(nil)
	if len(memo) != 1 || memo[42].cal == nil || !slices.Equal(memo[42].queries, []tpch.QueryID{tpch.QueryQ12}) {
		t.Fatalf("memo holds %d calibrations for two Q12 specs sharing a seed, want one of Q12", len(memo))
	}
	if with != without {
		t.Fatalf("decisions differ with the memo:\n%s\nwithout:\n%s", with, without)
	}
}

// idleTenantHeapBound is the live heap a tenant this node does not own
// may hold: its federation, scheduler and metric series, with the
// seed's calibration shared. Its generators hold no state until they
// draw; when each held math/rand's 4.9 KB register from birth, an idle
// tenant held about XX KB.
const idleTenantHeapBound = 16 << 10

// TestIdleTenantHeap builds a cluster node that owns none of its
// federations and holds the live heap each of them adds to
// idleTenantHeapBound.
func TestIdleTenantHeap(t *testing.T) {
	members := []cluster.Member{{ID: "n0", Addr: "http://127.0.0.1:1"}, {ID: "n1", Addr: "http://127.0.0.1:1"}}
	ring, err := cluster.NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	const k = 16
	var specs []FederationSpec
	for i := 0; len(specs) < k; i++ {
		if name := fmt.Sprintf("fed%d", i); ring.Owner(name).ID == "n1" {
			specs = append(specs, FederationSpec{Name: name, Queries: []string{"Q12"}})
		}
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	srv, err := New(Config{Federations: specs, Cluster: &ClusterConfig{NodeID: "n0", Peers: members}})
	if err != nil {
		t.Fatal(err)
	}
	perTenant := int64(live()-before) / k
	for _, sp := range specs {
		if st := srv.tenants[sp.Name].state.Load(); st == cluster.Active {
			t.Fatalf("%s is active on the node that owns none", sp.Name)
		}
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d B of live heap per idle tenant, bound %d", perTenant, idleTenantHeapBound)
	if perTenant > idleTenantHeapBound {
		t.Errorf("an idle tenant holds %d B of live heap, over the bound of %d", perTenant, idleTenantHeapBound)
	}
}
