package experiments

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/moo"
	"repro/internal/tpch"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"xxx", "y"}},
		Notes:  []string{"n"},
	}
	out := tbl.Render()
	for _, want := range []string{"T\n", "a", "bb", "xxx", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tbl := Table1Pricing()
	if len(tbl.Rows) != 11 { // 5 Amazon + 6 Microsoft
		t.Fatalf("Table 1 has %d rows, want 11", len(tbl.Rows))
	}
	out := tbl.Render()
	for _, cell := range []string{"a1.medium", "$0.0049/hour", "B8MS", "$0.3330/hour", "EBS-Only"} {
		if !strings.Contains(out, cell) {
			t.Errorf("Table 1 lacks %q", cell)
		}
	}
}

func TestTable2MatchesPaperExactly(t *testing.T) {
	tbl, err := Table2R2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("Table 2 has %d rows, want 7 (M=4..10)", len(tbl.Rows))
	}
	// Every |diff| cell must be below 5e-4 — the published precision.
	for _, row := range tbl.Rows {
		diff, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad diff cell %q: %v", row[3], err)
		}
		if diff > 5e-4 {
			t.Errorf("M=%s: |R² diff| = %v exceeds published precision", row[0], diff)
		}
	}
}

func TestRunMRESmall(t *testing.T) {
	if testing.Short() {
		t.Skip("MRE campaign is slow for -short")
	}
	res, err := RunMRE(0.1, MREOptions{Reps: 2, HistorySize: 40, TestQueries: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range tpch.AllQueries {
		perModel := res.MRE[q]
		if len(perModel) != len(ModelOrder) {
			t.Fatalf("%v scored %d models, want %d", q, len(perModel), len(ModelOrder))
		}
		for name, v := range perModel {
			if math.IsNaN(v) || v < 0 {
				t.Errorf("%v %s MRE = %v", q, name, v)
			}
		}
	}
	tbl := MRETable(res, "test")
	if len(tbl.Rows) != len(tpch.AllQueries) {
		t.Errorf("MRE table rows = %d", len(tbl.Rows))
	}
}

// TestRunFig3 checks the three Figure 3 approaches at both lattice
// sizes: the exact sweep pays the plan space once, the weighted sum
// pays it for every policy, and the GA pays at most the plan space once
// for a front that lies on or behind the exact one.
func TestRunFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig3 run is slow for -short")
	}
	res, tbl, err := RunFig3(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policies != 5 {
		t.Fatalf("%d policy changes, want 5", res.Policies)
	}
	if len(res.Lattices) != 2 || res.Lattices[1].PlanSpace != 18432 {
		t.Fatalf("lattices: %+v", res.Lattices)
	}
	for _, l := range res.Lattices {
		ga, exact, wsm := l.Evaluations[0], l.Evaluations[1], l.Evaluations[2]
		if exact != l.PlanSpace || wsm != res.Policies*l.PlanSpace {
			t.Errorf("%d plans: exact evaluations %d, WSM %d; want the plan space once and %d times",
				l.PlanSpace, exact, wsm, res.Policies)
		}
		if ga <= 0 || ga > l.PlanSpace {
			t.Errorf("%d plans: GA evaluations %d", l.PlanSpace, ga)
		}
		if coverage := float64(l.Covered) / float64(len(l.Exact.FrontIdx)); coverage < 0 || coverage > 1 {
			t.Errorf("%d plans: coverage %v", l.PlanSpace, coverage)
		}
		onExact := make(map[federation.Plan]bool)
		for _, i := range l.Exact.FrontIdx {
			onExact[l.Exact.Plans[i]] = true
		}
		for i, p := range l.GA.Plans {
			if onExact[p] {
				continue
			}
			c := l.GA.Costs.Row(i)
			if !slices.ContainsFunc(l.Exact.FrontIdx, func(j int) bool {
				d, _ := moo.ParetoDominates(l.Exact.Costs.Row(j), c)
				return d
			}) {
				t.Errorf("%d plans: GA plan %v %v is neither on the exact front nor dominated by it", l.PlanSpace, p, c)
			}
		}
	}
	if len(tbl.Rows) != 6 {
		t.Errorf("Fig3 table rows = %d, want 6", len(tbl.Rows))
	}
}

func TestRunExample31(t *testing.T) {
	if testing.Short() {
		t.Skip("Example 3.1 run is slow for -short")
	}
	res, tbl, err := RunExample31(Example31Options{Plans: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.PaperPlanCount != 18200 {
		t.Errorf("paper plan count = %d, want 18200", res.PaperPlanCount)
	}
	if res.DreamNS <= 0 || res.DreamCachedNS <= 0 || res.BMLNS <= 0 {
		t.Fatalf("timings: %+v", res)
	}
	// DREAM's small window must estimate faster than full-history BML.
	if res.DreamNS >= res.BMLNS {
		t.Errorf("DREAM (%d ns) not faster than BML (%d ns) per sweep", res.DreamNS, res.BMLNS)
	}
	// The shared window fit must beat refitting per plan.
	if res.DreamCachedNS >= res.DreamNS {
		t.Errorf("cached DREAM (%d ns) not faster than fit-per-plan DREAM (%d ns)", res.DreamCachedNS, res.DreamNS)
	}
	if len(tbl.Rows) != 3 {
		t.Errorf("Example 3.1 table rows = %d, want 3", len(tbl.Rows))
	}
}

// TestExample31CachedRowNonZero: at midasctl's default seed every row
// of the printed study, the cached fit's too, shows a non-zero per-plan
// cost and extrapolation — a figure that rounds to zero says nothing.
func TestExample31CachedRowNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("Example 3.1 run is slow for -short")
	}
	_, tbl, err := RunExample31(Example31Options{Plans: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		for _, cell := range row[2:] {
			if v, err := strconv.ParseFloat(strings.Fields(cell)[0], 64); err != nil || v <= 0 {
				t.Errorf("%s: cell %q is not a positive figure", row[0], cell)
			}
		}
	}
}

// TestShuffledHistoryModel: the recency ablation's uniform arm sees a
// sample of the whole history (so it misses a regime change the
// most-recent window tracks), is a pure function of (seed, history
// version), and leaves the history it was handed untouched.
func TestShuffledHistoryModel(t *testing.T) {
	h, err := core.NewHistory(1, "time")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		x := float64(1 + i%9)
		c := x
		if i >= 50 { // regime change: the newest ten cost 10x
			c = 10 * x
		}
		if err := h.Append(core.Observation{X: []float64{x}, Costs: []float64{c}}); err != nil {
			t.Fatal(err)
		}
	}
	dream, err := ires.NewDREAMModel(core.Config{MMax: 9, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	recent, err := dream.EstimateSnapshot(h.Snapshot(), []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(recent[0]-50) > 1e-6 {
		t.Fatalf("most-recent estimate = %v, want 50", recent[0])
	}
	uniform := shuffledHistoryModel{dream: dream, seed: 3}
	a, err := uniform.EstimateSnapshot(h.Snapshot(), []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := uniform.EstimateSnapshot(h.Snapshot(), []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Errorf("same seed and history version drew different samples: %v vs %v", a[0], b[0])
	}
	if math.Abs(a[0]-50) < 1 {
		t.Errorf("uniform-sample estimate %v tracks the new regime like the most-recent window", a[0])
	}
	if h.Len() != 60 {
		t.Errorf("history grew to %d observations", h.Len())
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow for -short")
	}
	growth, err := AblationWindowGrowth(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(growth.Rows) != 2 {
		t.Errorf("growth ablation rows = %d", len(growth.Rows))
	}
	r2, err := AblationR2Threshold(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Rows) != 5 {
		t.Errorf("r2 ablation rows = %d", len(r2.Rows))
	}
	rec, err := AblationRecency(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Rows) != 2 {
		t.Errorf("recency ablation rows = %d", len(rec.Rows))
	}
}
