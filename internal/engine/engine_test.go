package engine

import (
	"errors"
	"math"
	"testing"
)

func testRelation() *Relation {
	return &Relation{
		Name:   "t",
		Schema: Schema{"id", "grp", "val"},
		Cols: []Column{
			{Kind: Int, Ints: []int64{1, 2, 3, 4, 5}},
			{Kind: Str, Strs: []string{"a", "a", "b", "b", "c"}},
			{Kind: Float, Floats: []float64{10, 20, 30, 40, 50}},
		},
	}
}

// run executes plan and returns its answer as rows.
func run(t *testing.T, plan Node, tables map[string]*Relation) (*Result, Stats) {
	t.Helper()
	rel, st, err := Run(plan, tables)
	if err != nil {
		t.Fatal(err)
	}
	return rel.Result(), st
}

// val compiles a read of the float64 column "val".
func val(b *Binder) func(int) float64 {
	v := b.Floats("val")
	return func(i int) float64 { return v[i] }
}

// valAbove compiles the predicate val > x.
func valAbove(x float64) Pred {
	return func(b *Binder) func(int) bool {
		v := val(b)
		return func(i int) bool { return v(i) > x }
	}
}

func TestSchemaIndex(t *testing.T) {
	s := Schema{"a", "b"}
	i, err := s.Index("b")
	if err != nil || i != 1 {
		t.Errorf("Index(b) = %d, %v", i, err)
	}
	if _, err := s.Index("z"); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("got %v, want ErrUnknownColumn", err)
	}
}

func TestScan(t *testing.T) {
	tables := map[string]*Relation{"t": testRelation()}
	rel, st := run(t, &Scan{Table: "t"}, tables)
	if len(rel.Rows) != 5 {
		t.Errorf("scan returned %d rows, want 5", len(rel.Rows))
	}
	if st.RowsScanned != 5 {
		t.Errorf("RowsScanned = %d, want 5", st.RowsScanned)
	}
	if _, _, err := Run(&Scan{Table: "missing"}, tables); !errors.Is(err, ErrUnknownTable) {
		t.Errorf("got %v, want ErrUnknownTable", err)
	}
}

func TestFilter(t *testing.T) {
	tables := map[string]*Relation{"t": testRelation()}
	plan := &Filter{
		In:   &Scan{Table: "t"},
		Pred: valAbove(25),
	}
	rel, st := run(t, plan, tables)
	if len(rel.Rows) != 3 {
		t.Errorf("filter kept %d rows, want 3", len(rel.Rows))
	}
	if st.RowsProcessed != 5 {
		t.Errorf("RowsProcessed = %d, want 5", st.RowsProcessed)
	}
}

func TestFilterError(t *testing.T) {
	tables := map[string]*Relation{"t": testRelation()}
	plan := &Filter{
		In: &Scan{Table: "t"},
		Pred: func(b *Binder) func(int) bool {
			b.Floats("no_such_column")
			return nil
		},
	}
	if _, _, err := Run(plan, tables); err == nil {
		t.Error("predicate error swallowed")
	}
}

func TestProject(t *testing.T) {
	tables := map[string]*Relation{"t": testRelation()}
	rel, _ := run(t, &Project{In: &Scan{Table: "t"}, Cols: []string{"val", "id"}}, tables)
	if len(rel.Schema) != 2 || rel.Schema[0] != "val" || rel.Schema[1] != "id" {
		t.Errorf("projected schema = %v", rel.Schema)
	}
	if rel.Rows[0][0] != 10.0 || rel.Rows[0][1] != int64(1) {
		t.Errorf("projected row = %v", rel.Rows[0])
	}
	if _, _, err := Run(&Project{In: &Scan{Table: "t"}, Cols: []string{"zzz"}}, tables); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("got %v, want ErrUnknownColumn", err)
	}
}

func joinFixtures() map[string]*Relation {
	return map[string]*Relation{
		"l": {
			Schema: Schema{"k", "lv"},
			Cols: []Column{
				{Kind: Int, Ints: []int64{1, 2, 3}},
				{Kind: Str, Strs: []string{"x", "y", "z"}},
			},
		},
		"r": {
			Schema: Schema{"k", "rv"},
			Cols: []Column{
				{Kind: Int, Ints: []int64{1, 1, 3}},
				{Kind: Float, Floats: []float64{100, 200, 300}},
			},
		},
	}
}

func TestHashJoinInner(t *testing.T) {
	plan := &HashJoin{
		Left: &Scan{Table: "l"}, Right: &Scan{Table: "r"},
		LeftKey: "k", RightKey: "k",
	}
	rel, st := run(t, plan, joinFixtures())
	// k=1 matches twice, k=3 once, k=2 drops → 3 output rows.
	if len(rel.Rows) != 3 {
		t.Fatalf("inner join output %d rows, want 3", len(rel.Rows))
	}
	// Duplicate column names get r_ prefixed.
	if _, err := rel.Schema.Index("r_k"); err != nil {
		t.Errorf("schema %v lacks disambiguated r_k", rel.Schema)
	}
	if st.Stages != 1 {
		t.Errorf("Stages = %d, want 1", st.Stages)
	}
	if st.ShuffleBytes <= 0 {
		t.Error("join should account shuffle bytes")
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	plan := &HashJoin{
		Left: &Scan{Table: "l"}, Right: &Scan{Table: "r"},
		LeftKey: "k", RightKey: "k", Type: LeftOuter,
	}
	rel, _ := run(t, plan, joinFixtures())
	// k=2 survives with nil padding → 4 rows.
	if len(rel.Rows) != 4 {
		t.Fatalf("left outer join output %d rows, want 4", len(rel.Rows))
	}
	var sawNull bool
	idx, _ := rel.Schema.Index("rv")
	for _, row := range rel.Rows {
		if row[idx] == nil {
			sawNull = true
		}
	}
	if !sawNull {
		t.Error("no nil padding for unmatched left row")
	}
}

func TestHashJoinBadKey(t *testing.T) {
	plan := &HashJoin{
		Left: &Scan{Table: "l"}, Right: &Scan{Table: "r"},
		LeftKey: "nope", RightKey: "k",
	}
	if _, _, err := Run(plan, joinFixtures()); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("got %v, want ErrUnknownColumn", err)
	}
}

func TestAggregateGrouped(t *testing.T) {
	tables := map[string]*Relation{"t": testRelation()}
	plan := &Aggregate{
		In:      &Scan{Table: "t"},
		GroupBy: []string{"grp"},
		Aggs: []AggSpec{
			{As: "n", Kind: Count},
			{As: "total", Kind: Sum, Val: val},
			{As: "mean", Kind: Avg, Val: val},
		},
	}
	rel, st := run(t, plan, tables)
	if len(rel.Rows) != 3 {
		t.Fatalf("aggregate produced %d groups, want 3", len(rel.Rows))
	}
	byGrp := map[string]Row{}
	for _, row := range rel.Rows {
		byGrp[row[0].(string)] = row
	}
	a := byGrp["a"]
	if a[1] != int64(2) || a[2] != 30.0 || a[3] != 15.0 {
		t.Errorf("group a = %v, want [a 2 30 15]", a)
	}
	if st.Stages != 1 {
		t.Errorf("Stages = %d, want 1", st.Stages)
	}
}

func TestAggregateConditionalCount(t *testing.T) {
	tables := map[string]*Relation{"t": testRelation()}
	plan := &Aggregate{
		In: &Scan{Table: "t"},
		Aggs: []AggSpec{{
			As: "big", Kind: Count,
			Where: valAbove(29),
		}},
	}
	rel, _ := run(t, plan, tables)
	if len(rel.Rows) != 1 || rel.Rows[0][0] != int64(3) {
		t.Errorf("conditional count = %v, want [[3]]", rel.Rows)
	}
}

func TestAggregateGlobalOnEmptyInput(t *testing.T) {
	tables := map[string]*Relation{"e": {Schema: Schema{"x"}, Cols: []Column{{Kind: Int}}}}
	plan := &Aggregate{
		In:   &Scan{Table: "e"},
		Aggs: []AggSpec{{As: "n", Kind: Count}},
	}
	rel, _ := run(t, plan, tables)
	if len(rel.Rows) != 1 || rel.Rows[0][0] != int64(0) {
		t.Errorf("global aggregate over empty input = %v, want one zero row", rel.Rows)
	}
}

func TestAggregateAvgEmptyGroupGuard(t *testing.T) {
	// Avg with a Where that never fires yields 0, not NaN.
	tables := map[string]*Relation{"t": testRelation()}
	plan := &Aggregate{
		In: &Scan{Table: "t"},
		Aggs: []AggSpec{{
			As: "avg_none", Kind: Avg,
			Val:   val,
			Where: valAbove(math.Inf(1)),
		}},
	}
	rel, _ := run(t, plan, tables)
	if rel.Rows[0][0] != 0.0 {
		t.Errorf("empty Avg = %v, want 0", rel.Rows[0][0])
	}
}

func TestMap(t *testing.T) {
	tables := map[string]*Relation{"t": testRelation()}
	plan := &Map{
		In: &Scan{Table: "t"},
		As: "doubled",
		Val: func(b *Binder) func(int) float64 {
			v := val(b)
			return func(i int) float64 { return v(i) * 2 }
		},
	}
	rel, _ := run(t, plan, tables)
	if rel.Rows[0][0] != 20.0 {
		t.Errorf("map = %v, want 20", rel.Rows[0][0])
	}
}

func TestSort(t *testing.T) {
	tables := map[string]*Relation{"t": testRelation()}
	plan := &Sort{
		In: &Scan{Table: "t"},
		Less: func(b *Binder) func(i, j int) bool {
			v := val(b)
			return func(i, j int) bool { return v(i) > v(j) }
		},
	}
	rel, _ := run(t, plan, tables)
	if len(rel.Rows) != 5 {
		t.Fatalf("sort kept %d rows, want 5", len(rel.Rows))
	}
	for k, want := range []float64{50, 40, 30, 20, 10} {
		if rel.Rows[k][2] != want {
			t.Fatalf("sorted rows = %v", rel.Rows)
		}
	}
}

func TestCachedExecutesOnce(t *testing.T) {
	tables := map[string]*Relation{"t": testRelation()}
	cached := &Cached{In: &Scan{Table: "t"}}
	// Join the cached node with itself: without memoization the scan
	// would count 10 scanned rows; with it, 5.
	plan := &HashJoin{
		Left: cached, Right: cached,
		LeftKey: "id", RightKey: "id",
	}
	rel, st := run(t, plan, tables)
	if len(rel.Rows) != 5 {
		t.Fatalf("self join produced %d rows, want 5", len(rel.Rows))
	}
	if st.RowsScanned != 5 {
		t.Errorf("RowsScanned = %d, want 5 (cached subtree re-executed)", st.RowsScanned)
	}
}

func TestRunReportsOutputRows(t *testing.T) {
	tables := map[string]*Relation{"t": testRelation()}
	_, st := run(t, &Scan{Table: "t"}, tables)
	if st.RowsOutput != 5 {
		t.Errorf("RowsOutput = %d, want 5", st.RowsOutput)
	}
}

func TestApproxBytes(t *testing.T) {
	r := testRelation()
	if r.ApproxBytes() != float64(5*3*12) {
		t.Errorf("ApproxBytes = %v, want %v", r.ApproxBytes(), 5*3*12)
	}
}
