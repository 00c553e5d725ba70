package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tpch"
)

// runFederated executes a QueryPlan the way the federation does: prep
// plans against the base tables, final plan against the shipped preps.
func runFederated(t *testing.T, db *tpch.Database, qp *QueryPlan) (*Result, Stats) {
	t.Helper()
	leftBase, err := ToRelation(db, qp.LeftTable)
	if err != nil {
		t.Fatal(err)
	}
	rightBase, err := ToRelation(db, qp.RightTable)
	if err != nil {
		t.Fatal(err)
	}
	leftRel, st1, err := Run(qp.LeftPrep, map[string]*Relation{qp.LeftTable: leftBase})
	if err != nil {
		t.Fatal(err)
	}
	rightRel, st2, err := Run(qp.RightPrep, map[string]*Relation{qp.RightTable: rightBase})
	if err != nil {
		t.Fatal(err)
	}
	finalRel, st3, err := Run(qp.Final, map[string]*Relation{"left": leftRel, "right": rightRel})
	if err != nil {
		t.Fatal(err)
	}
	total := Stats{
		RowsScanned:   st1.RowsScanned + st2.RowsScanned + st3.RowsScanned,
		RowsProcessed: st1.RowsProcessed + st2.RowsProcessed + st3.RowsProcessed,
		RowsOutput:    st3.RowsOutput,
		ShuffleBytes:  st1.ShuffleBytes + st2.ShuffleBytes + st3.ShuffleBytes,
		Stages:        st1.Stages + st2.Stages + st3.Stages,
	}
	return finalRel.Result(), total
}

func genDB(t *testing.T, sf float64, seed int64) *tpch.Database {
	t.Helper()
	db, err := tpch.Generate(sf, tpch.GenOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// forEachDB runs fn as a subtest over every reference database: seeds
// {7, 42, 77} at the servers' calibration scale (SF 0.004) and at 0.01.
func forEachDB(t *testing.T, fn func(t *testing.T, db *tpch.Database)) {
	for _, seed := range []int64{7, 42, 77} {
		for _, sf := range []float64{0.004, 0.01} {
			t.Run(fmt.Sprintf("seed=%d/sf=%v", seed, sf), func(t *testing.T) {
				fn(t, genDB(t, sf, seed))
			})
		}
	}
}

func TestToRelationUnknown(t *testing.T) {
	db := genDB(t, 0.004, 77)
	if _, err := ToRelation(db, "partsupp"); err == nil {
		t.Error("unsupported table accepted")
	}
}

func TestBuildPlanUnknown(t *testing.T) {
	if _, err := BuildPlan(tpch.QueryID(99)); err == nil {
		t.Error("unknown query accepted")
	}
}

func TestQ12PlanMatchesReference(t *testing.T) {
	forEachDB(t, func(t *testing.T, db *tpch.Database) {
		qp, err := BuildPlan(tpch.QueryQ12)
		if err != nil {
			t.Fatal(err)
		}
		rel, st := runFederated(t, db, qp)
		want := tpch.Q12(db, tpch.DefaultQ12Params())
		if len(rel.Rows) != len(want) {
			t.Fatalf("engine Q12 has %d groups, reference has %d", len(rel.Rows), len(want))
		}
		for i, w := range want {
			row := rel.Rows[i]
			if row[0].(string) != w.ShipMode ||
				row[1].(int64) != w.HighLineCount ||
				row[2].(int64) != w.LowLineCount {
				t.Errorf("group %d: engine %v, reference %+v", i, row, w)
			}
		}
		if st.Stages == 0 || st.RowsScanned == 0 {
			t.Error("stats not accumulated across federated execution")
		}
	})
}

func TestQ13PlanMatchesReference(t *testing.T) {
	forEachDB(t, func(t *testing.T, db *tpch.Database) {
		qp, err := BuildPlan(tpch.QueryQ13)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := runFederated(t, db, qp)
		want := tpch.Q13(db, tpch.DefaultQ13Params())
		if len(rel.Rows) != len(want) {
			t.Fatalf("engine Q13 has %d groups, reference has %d", len(rel.Rows), len(want))
		}
		for i, w := range want {
			row := rel.Rows[i]
			if row[0].(int64) != w.CCount || row[1].(int64) != w.CustDist {
				t.Errorf("row %d: engine (%v, %v), reference (%d, %d)",
					i, row[0], row[1], w.CCount, w.CustDist)
			}
		}
	})
}

func TestQ14PlanMatchesReference(t *testing.T) {
	forEachDB(t, func(t *testing.T, db *tpch.Database) {
		qp, err := BuildPlan(tpch.QueryQ14)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := runFederated(t, db, qp)
		if len(rel.Rows) != 1 {
			t.Fatalf("Q14 returned %d rows, want 1", len(rel.Rows))
		}
		got := rel.Rows[0][0].(float64)
		want := tpch.Q14(db, tpch.DefaultQ14Params())
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("engine Q14 = %v, reference = %v", got, want)
		}
	})
}

func TestQ17PlanMatchesReference(t *testing.T) {
	forEachDB(t, func(t *testing.T, db *tpch.Database) {
		qp, err := BuildPlan(tpch.QueryQ17)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := runFederated(t, db, qp)
		if len(rel.Rows) != 1 {
			t.Fatalf("Q17 returned %d rows, want 1", len(rel.Rows))
		}
		got := rel.Rows[0][0].(float64)
		want := tpch.Q17(db, tpch.DefaultQ17Params())
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("engine Q17 = %v, reference = %v", got, want)
		}
	})
}

func TestAllPlansHaveMetadata(t *testing.T) {
	for _, q := range tpch.AllQueries {
		qp, err := BuildPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		if qp.LeftPrep == nil || qp.RightPrep == nil || qp.Final == nil {
			t.Errorf("%v: plan has nil pieces", q)
		}
		wantL, wantR := q.Tables()
		if qp.LeftTable != wantL || qp.RightTable != wantR {
			t.Errorf("%v: tables (%s, %s), want (%s, %s)",
				q, qp.LeftTable, qp.RightTable, wantL, wantR)
		}
	}
}

func TestLikePattern(t *testing.T) {
	if !likePattern("xx special yy requests zz", "special", "requests") {
		t.Error("should match")
	}
	if likePattern("requests then special", "special", "requests") {
		t.Error("order must matter")
	}
	if likePattern("nothing", "special", "requests") {
		t.Error("should not match")
	}
}

func TestProfiles(t *testing.T) {
	st := Stats{RowsScanned: 1_000_000, RowsProcessed: 2_000_000, Stages: 2, ShuffleBytes: 50 * 1024 * 1024}
	hive, pg := Hive(), Postgres()

	h1 := hive.SimulateSeconds(st, 1, 1)
	h8 := hive.SimulateSeconds(st, 8, 1)
	if h8 >= h1 {
		t.Errorf("hive does not speed up with nodes: 1→%v, 8→%v", h1, h8)
	}
	p1 := pg.SimulateSeconds(st, 1, 1)
	p8 := pg.SimulateSeconds(st, 8, 1)
	if p1 != p8 {
		t.Errorf("postgres should ignore extra nodes: 1→%v, 8→%v", p1, p8)
	}
	// Hive pays startup: tiny jobs are faster on postgres.
	tiny := Stats{RowsScanned: 1000, RowsProcessed: 1000, Stages: 1}
	if hive.SimulateSeconds(tiny, 8, 1) < pg.SimulateSeconds(tiny, 1, 1) {
		t.Error("hive should lose on tiny inputs due to startup cost")
	}
	// Load factor scales the variable part.
	lo := hive.SimulateSeconds(st, 4, 0.5)
	hi := hive.SimulateSeconds(st, 4, 2.0)
	if hi <= lo {
		t.Errorf("load factor has no effect: %v vs %v", lo, hi)
	}
	// Defensive paths: nodes < 1 and load ≤ 0 normalize.
	if hive.SimulateSeconds(st, 0, -1) <= 0 {
		t.Error("degenerate inputs should still simulate positive time")
	}
}

func TestProfileCrossover(t *testing.T) {
	// The federation premise: hive wins on big scans with many nodes,
	// postgres wins on small ones.
	hive, pg := Hive(), Postgres()
	big := Stats{RowsScanned: 30_000_000, RowsProcessed: 30_000_000, Stages: 2}
	if hive.SimulateSeconds(big, 16, 1) >= pg.SimulateSeconds(big, 1, 1) {
		t.Error("hive/16 should beat postgres on a 30M-row workload")
	}
	small := Stats{RowsScanned: 100_000, RowsProcessed: 100_000, Stages: 2}
	if pg.SimulateSeconds(small, 1, 1) >= hive.SimulateSeconds(small, 16, 1) {
		t.Error("postgres should beat hive on a 100k-row workload")
	}
}
