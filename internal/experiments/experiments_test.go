package experiments

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/moo"
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

// smallCampaign is the Tables 3–4 campaign the goldens pin: two
// repetitions of a 40-execution history and 15 scored test queries.
var smallCampaign = MREOptions{Reps: 2, HistorySize: 40, TestQueries: 15, Seed: 9}

// checkArtefactGolden runs the registry's artefact name under opts and
// compares what `midasctl` would print for it with testdata/golden. It
// runs once at each of procs (as GOMAXPROCS), or once as it finds the
// process when procs is empty or the race detector is on (which makes a
// serial campaign too slow): the campaign runner's output must not
// depend on how many cells run at once.
func checkArtefactGolden(t *testing.T, name string, opts MREOptions, golden string, procs ...int) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(Artefacts, func(a Artefact) bool { return a.Name == name })
	if i < 0 {
		t.Fatalf("no artefact %q", name)
	}
	if raceEnabled || len(procs) == 0 {
		procs = []int{runtime.GOMAXPROCS(0)}
	}
	for _, p := range procs {
		prev := runtime.GOMAXPROCS(p)
		tables, err := Artefacts[i].Run(opts)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for _, tbl := range tables {
			got.WriteString(tbl.Render())
			got.WriteString("\n")
		}
		if got.String() != string(want) {
			t.Errorf("%s at GOMAXPROCS %d differs from testdata/%s\n--- got\n%s--- want\n%s", name, p, golden, got.String(), want)
		}
	}
}

// The campaign goldens pin Tables 3–4 on the small campaign and the
// four ablations byte for byte; table3 and the ablations at GOMAXPROCS
// 1 and 4. After an intended change, regenerate them with
//
//	go run ./cmd/midasctl -reps 2 -history 40 -tests 15 -seed 9 table3 > internal/experiments/testdata/table3-small.golden
//	go run ./cmd/midasctl -reps 2 -history 40 -tests 15 -seed 9 table4 > internal/experiments/testdata/table4-small.golden
//	go run ./cmd/midasctl -seed 42 ablations > internal/experiments/testdata/ablations-42.golden

func TestRunMRESmall(t *testing.T) {
	if testing.Short() {
		t.Skip("MRE campaign is slow for -short")
	}
	checkArtefactGolden(t, "table3", smallCampaign, "table3-small.golden", 1, 4)
}

func TestRunMRESmallAt1GiB(t *testing.T) {
	if testing.Short() {
		t.Skip("MRE campaign is slow for -short")
	}
	checkArtefactGolden(t, "table4", smallCampaign, "table4-small.golden")
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
			onExact[l.Exact.Lattice.At(i)] = true
		}
		exactCosts := l.Exact.AllCosts()
		for i, p := range l.GA.Plans {
			if onExact[p] {
				continue
			}
			c := l.GA.Costs.Row(i)
			if !slices.ContainsFunc(l.Exact.FrontIdx, func(j int) bool {
				d, _ := moo.ParetoDominates(exactCosts.Row(j), c)
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

// example31At42 is the one Example 3.1 run its tests share: 200 plans
// at midasctl's default seed.
var example31At42 = sync.OnceValues(func() (example31Run, error) {
	res, tbl, err := RunExample31(Example31Options{Plans: 200, Seed: 42})
	return example31Run{res, tbl}, err
})

type example31Run struct {
	res *Example31Result
	tbl *Table
}

func TestRunExample31(t *testing.T) {
	if testing.Short() {
		t.Skip("Example 3.1 run is slow for -short")
	}
	run, err := example31At42()
	if err != nil {
		t.Fatal(err)
	}
	res := run.res
	if res.PaperPlanCount != 18200 {
		t.Errorf("paper plan count = %d, want 18200", res.PaperPlanCount)
	}
	if res.DreamNS <= 0 || res.DreamCachedNS <= 0 || res.BMLNS <= 0 {
		t.Fatalf("timings: %+v", res)
	}
	if res.PlansEstimated != 200 || res.BMLPlans != 20 {
		t.Errorf("plans estimated: %d by DREAM, %d by BML; want 200 and 20", res.PlansEstimated, res.BMLPlans)
	}
	// DREAM's small window must estimate faster than full-history BML,
	// per plan: BML estimates fewer of them.
	if dream, bml := res.DreamNS/int64(res.PlansEstimated), res.BMLNS/int64(res.BMLPlans); dream >= bml {
		t.Errorf("DREAM (%d ns) not faster than BML (%d ns) per plan", dream, bml)
	}
	// The shared window fit must beat refitting per plan.
	if res.DreamCachedNS >= res.DreamNS {
		t.Errorf("cached DREAM (%d ns) not faster than fit-per-plan DREAM (%d ns)", res.DreamCachedNS, res.DreamNS)
	}
	if len(run.tbl.Rows) != 3 {
		t.Errorf("Example 3.1 table rows = %d, want 3", len(run.tbl.Rows))
	}
}

// TestExample31CachedRowNonZero: at midasctl's default seed every row
// of the printed study, the cached fit's too, shows a non-zero per-plan
// cost and extrapolation — a figure that rounds to zero says nothing.
func TestExample31CachedRowNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("Example 3.1 run is slow for -short")
	}
	run, err := example31At42()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range run.tbl.Rows {
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
	checkArtefactGolden(t, "ablations", MREOptions{Seed: 42}, "ablations-42.golden", 1, 4)
}
