package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/federation"
	"repro/internal/scenario"
	"repro/internal/tpch"
)

// One spec per arrival kind, crossed with distinct chaos profiles, so
// the reproducibility family exercises every process and the seam
// without paying for the full 15-cell matrix in the race suite.
func reproSpecs() []scenario.Spec {
	return []scenario.Spec{
		{Arrival: "poisson", Chaos: "none", Events: 25, Seed: 101},
		{Arrival: "bursty", Chaos: "mixed", Events: 25, Seed: 202},
		{Arrival: "diurnal", Chaos: "outages", Events: 25, Seed: 303},
	}
}

// The seed-reproducibility family: every scenario run twice with the
// same seed must produce a byte-identical event trace AND an identical
// decision sequence — plans, estimates, measurements, Pareto sizes.
func TestScenarioSeedReproducibility(t *testing.T) {
	for _, spec := range reproSpecs() {
		spec := spec
		t.Run(spec.Arrival+"_"+spec.Chaos, func(t *testing.T) {
			t.Parallel()
			evA, err := spec.Generate()
			if err != nil {
				t.Fatal(err)
			}
			evB, err := spec.Generate()
			if err != nil {
				t.Fatal(err)
			}
			var ba, bb bytes.Buffer
			if err := scenario.WriteTrace(&ba, evA); err != nil {
				t.Fatal(err)
			}
			if err := scenario.WriteTrace(&bb, evB); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
				t.Fatal("same seed produced different trace bytes")
			}

			queries := []string{"Q12", "Q13"}
			r1, err := RunScenario(spec, queries)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := RunScenario(spec, queries)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1.Decisions, r2.Decisions) {
				for i := range r1.Decisions {
					if !reflect.DeepEqual(r1.Decisions[i], r2.Decisions[i]) {
						t.Fatalf("decision %d diverged across identically seeded runs:\n run1 %+v\n run2 %+v",
							i, r1.Decisions[i], r2.Decisions[i])
					}
				}
				t.Fatal("decision sequences diverged across identically seeded runs")
			}
			if r1.Faults != r2.Faults {
				t.Fatalf("fault schedules diverged: %+v vs %+v", r1.Faults, r2.Faults)
			}
		})
	}
}

func TestRunScenariosRendersTable(t *testing.T) {
	rows, table, err := RunScenarios(ScenarioOptions{Seed: 7, Events: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 || len(table.Rows) != 15 {
		t.Fatalf("got %d rows / %d table rows, want the 15 cells of the grid", len(rows), len(table.Rows))
	}
	for _, r := range rows {
		if r.Events != 20 {
			t.Fatalf("%s: ran %d events, want 20", r.Spec.Name, r.Events)
		}
		if r.MRETime <= 0 || r.P99TimeS < r.P50TimeS {
			t.Fatalf("%s: degenerate metrics %+v", r.Spec.Name, r)
		}
		if len(r.Decisions) != r.Events {
			t.Fatalf("%s: %d decisions for %d events", r.Spec.Name, len(r.Decisions), r.Events)
		}
	}
	// rows[0] is the chaos-free cell: nothing may have been injected.
	if f := rows[0].Faults; f != (cloud.FaultCounts{}) {
		t.Fatalf("chaos-free scenario reported faults %+v", f)
	}
	out := table.Render()
	if len(out) == 0 {
		t.Fatal("empty table render")
	}
}

func TestRunScenarioRejectsUnknownChaos(t *testing.T) {
	if _, err := RunScenario(scenario.Spec{Chaos: "nope", Seed: 1}, []string{"Q12"}); err == nil {
		t.Fatal("unknown chaos profile must error")
	}
}

// oracleRegret over a menu: every plan's regret lies in [0, weight sum],
// the best plan's is 0, and a plan outside the menu is an error.
func TestOracleRegret(t *testing.T) {
	fed, err := federation.DefaultTopology(3)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, 3)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := federation.NewScaledExecutor(fed, cal, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	menu, err := fed.EnumeratePlans(tpch.QueryQ12, scenarioNodeChoices)
	if err != nil {
		t.Fatal(err)
	}
	out, err := oracle.Execute(menu[0])
	if err != nil {
		t.Fatal(err)
	}
	weights := []float64{1, 1}
	optimal := 0
	for _, p := range menu {
		r, err := oracleRegret(oracle, menu, p, out.Env, weights)
		if err != nil {
			t.Fatal(err)
		}
		if r < 0 || r > 2 {
			t.Fatalf("%v: regret %v outside [0, 2]", p, r)
		}
		if r == 0 {
			optimal++
		}
	}
	if optimal == 0 {
		t.Fatal("no plan of the menu has regret 0")
	}
	outside := federation.Plan{Query: tpch.QueryQ12, NodesLeft: 3, NodesRight: 3}
	if _, err := oracleRegret(oracle, menu, outside, out.Env, weights); err == nil {
		t.Fatal("a plan outside the menu was scored")
	}
}
