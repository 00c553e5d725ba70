package federation

import (
	"testing"

	"repro/internal/tpch"
)

func TestThreeCloudTopology(t *testing.T) {
	fed, err := ThreeCloudTopology(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Sites) != 3 {
		t.Fatalf("sites = %d, want 3", len(fed.Sites))
	}
	// All studied queries must remain cross-site.
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
			t.Errorf("%v: both tables at %q", q, ls.Name)
		}
	}
	// Q13 spans Azure↔GCP specifically.
	s, err := fed.SiteOf("customer")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "spark-gcp" {
		t.Errorf("customer at %q, want spark-gcp", s.Name)
	}
	if s.Engine.Name != "spark" {
		t.Errorf("customer engine %q, want spark", s.Engine.Name)
	}
	// The custom link is honored.
	l := fed.link("hive-aws", "spark-gcp")
	if l.BandwidthMiBps != 220 {
		t.Errorf("custom link bandwidth = %v, want 220", l.BandwidthMiBps)
	}
	if def := fed.link("hive-aws", "postgres-azure"); def.BandwidthMiBps != 110 {
		t.Errorf("default link bandwidth = %v, want 110", def.BandwidthMiBps)
	}
}

func TestThreeCloudEndToEnd(t *testing.T) {
	fed, err := ThreeCloudTopology(10)
	if err != nil {
		t.Fatal(err)
	}
	db, err := tpch.Generate(0.005, tpch.GenOptions{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	ex := NewFullExecutor(fed, db)
	// Q13 across Spark and PostgreSQL: answer must match the reference.
	out, err := ex.Execute(Plan{Query: tpch.QueryQ13, JoinAtLeft: false, NodesLeft: 2, NodesRight: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := tpch.Q13(db, tpch.DefaultQ13Params())
	if len(out.Result.Rows) != len(want) {
		t.Fatalf("Q13 rows = %d, reference %d", len(out.Result.Rows), len(want))
	}
	if out.TimeS <= 0 || out.MoneyUSD <= 0 {
		t.Errorf("degenerate costs %+v", out)
	}
	// Calibration works on the three-site topology too.
	cal, err := Calibrate(fed, 0.004, 10)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewScaledExecutor(fed, cal, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Execute(Plan{Query: tpch.QueryQ13, JoinAtLeft: true, NodesLeft: 4, NodesRight: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestSparkProfileCharacter(t *testing.T) {
	fed, err := ThreeCloudTopology(11)
	if err != nil {
		t.Fatal(err)
	}
	spark := fed.Sites["spark-gcp"].Engine
	hive := fed.Sites["hive-aws"].Engine
	if spark.StartupS >= hive.StartupS {
		t.Errorf("spark startup %v should undercut hive %v", spark.StartupS, hive.StartupS)
	}
	if spark.ParallelExponent <= 0 {
		t.Error("spark should scale out")
	}
}
