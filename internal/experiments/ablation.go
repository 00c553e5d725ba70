package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ires"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// The ablations of the design choices DESIGN.md calls out.

// ablationReps is how many independent repetitions each ablation
// averages over.
const ablationReps = 3

// An ablationRow is one DREAM configuration of an ablation table, and
// the name of its model in the shared cells.
type ablationRow struct {
	label string
	cfg   core.Config
	// uniform scores the configuration on a seeded shuffle of the
	// history (shuffledHistoryModel) instead of the history itself.
	uniform bool
}

// sharedAblations are the ablations whose variants are scored side by
// side on one history per repetition. A table prints, after the label,
// the first len(header)-1 of: time MRE, mean window, mean refits.
var sharedAblations = []struct {
	title  string
	header []string
	rows   []ablationRow
}{
	// The paper's grow-by-one schedule against doubling.
	{"Ablation: DREAM window growth policy (Q12, 100 MiB).", []string{"Growth", "Time MRE", "Mean window", "Mean refits"}, []ablationRow{
		{label: "grow-by-one (paper)", cfg: core.Config{Growth: core.GrowByOne, MMax: ires.MMax}},
		{label: "doubling", cfg: core.Config{Growth: core.Doubling, MMax: ires.MMax}},
	}},
	// A sweep of R²require around the paper's 0.8.
	{"Ablation: DREAM R²require threshold (Q12, 100 MiB).", []string{"R²require", "Time MRE", "Mean window"}, []ablationRow{
		{label: "0.60", cfg: core.Config{RequiredR2: 0.6, MMax: ires.MMax}},
		{label: "0.70", cfg: core.Config{RequiredR2: 0.7, MMax: ires.MMax}},
		{label: "0.80", cfg: core.Config{RequiredR2: 0.8, MMax: ires.MMax}},
		{label: "0.90", cfg: core.Config{RequiredR2: 0.9, MMax: ires.MMax}},
		{label: "0.95", cfg: core.Config{RequiredR2: 0.95, MMax: ires.MMax}},
	}},
	// DREAM's most-recent window against a uniform sample over all
	// history: how much of DREAM's accuracy comes from recency rather
	// than window size. Every call of the uniform arm builds a fresh
	// shuffled history, so a fit cached under its identity could never
	// be hit.
	{"Ablation: DREAM window selection (Q12, 100 MiB).", []string{"Window policy", "Time MRE"}, []ablationRow{
		{label: "most recent (paper)", cfg: core.Config{MMax: ires.MMax}},
		{label: "uniform sample", cfg: core.Config{MMax: ires.MMax, CacheSize: -1}, uniform: true},
	}},
}

// Ablations runs the four design-choice ablations and returns their
// tables. The window-growth, R² and recency variants share one history
// per repetition (Q12 at 100 MiB, seed + rep·977) and are scored on it
// side by side. The composite ablation records per-operator costs, so
// it draws histories of its own (seed + rep·601). That is six runs of
// the protocol in all.
func Ablations(seed int64) ([]*Table, error) {
	var cells []cell
	for rep := 0; rep < ablationReps; rep++ {
		repSeed := seed + int64(rep)*977
		var models []workload.ModelSpec
		for _, a := range sharedAblations {
			for _, r := range a.rows {
				dream, err := ires.NewDREAMModel(r.cfg)
				if err != nil {
					return nil, err
				}
				var m ires.CostModel = dream
				if r.uniform {
					m = shuffledHistoryModel{dream: dream, seed: repSeed}
				}
				models = append(models, workload.ModelSpec{Name: r.label, Model: m})
			}
		}
		cells = append(cells, cell{cfg: workload.EvalConfig{Query: tpch.QueryQ12, SF: 0.1, Seed: repSeed}, rep: rep, models: models})
	}
	for rep := 0; rep < ablationReps; rep++ {
		repSeed := seed + int64(rep)*601
		mono, err := ires.NewDREAMModel(core.Config{MMax: ires.MMax})
		if err != nil {
			return nil, err
		}
		comp, err := ires.NewCompositeDREAMModel(core.Config{MMax: ires.MMax})
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell{cfg: workload.EvalConfig{
			Query: tpch.QueryQ12, SF: 0.1, Seed: repSeed, RecordBreakdown: true,
		}, rep: rep, models: []workload.ModelSpec{{Name: "monolithic", Model: mono}, {Name: "composite", Model: comp}}})
	}
	results, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	shared, composite := results[:ablationReps], results[ablationReps:]

	var out []*Table
	for _, a := range sharedAblations {
		t := &Table{Title: a.title, Header: a.header}
		for _, r := range a.rows {
			row := []string{r.label, fmt.Sprintf("%.3f", meanMRE(shared, r.label))}
			if len(a.header) > 2 {
				window, refits, err := probeWindow(r.cfg, shared)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.1f", window), fmt.Sprintf("%.1f", refits))
			}
			t.Rows = append(t.Rows, row[:len(a.header)])
		}
		out = append(out, t)
	}
	// Monolithic DREAM (one regression over end-to-end plan time)
	// against the operator-level composite (per-piece regressions
	// reassembled through the plan's max/sum structure, the way IReS
	// models per operator).
	t := &Table{
		Title:  "Ablation: monolithic vs operator-level DREAM (Q12, 100 MiB).",
		Header: []string{"Model", "Time MRE"},
		Notes: []string{
			"composite predicts each operator separately and reassembles time = max(preps) + ship + final",
		},
	}
	for _, name := range []string{"monolithic", "composite"} {
		t.Rows = append(t.Rows, []string{name, fmt.Sprintf("%.3f", meanMRE(composite, name))})
	}
	return append(out, t), nil
}

// probeWindow is the mean converged window size and refit count of a
// fresh estimator configured as cfg, probed at the last ten
// observations of each result's final history.
func probeWindow(cfg core.Config, results []*workload.EvalResult) (window, refits float64, err error) {
	var n int
	for _, res := range results {
		est, err := core.NewEstimator(cfg)
		if err != nil {
			return 0, 0, err
		}
		hist := res.History
		for i := 0; i < 10; i++ {
			e, err := est.EstimateCostValue(hist, hist.At(hist.Len()-1-i).X)
			if err != nil {
				continue
			}
			window += float64(e.WindowSize)
			refits += float64(e.Refits)
			n++
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("experiments: no window probes succeeded")
	}
	return window / float64(n), refits / float64(n), nil
}

// shuffledHistoryModel is the recency ablation's uniform-sample arm:
// the ordinary DREAM estimator run against a seeded shuffle of the
// history's observations — the most recent m of a shuffled history is
// a uniform sample of m, so the window search is unchanged and only
// recency is taken away.
type shuffledHistoryModel struct {
	dream *ires.DREAMModel
	seed  int64
}

func (m shuffledHistoryModel) Name() string { return "dream_uniform" }

func (m shuffledHistoryModel) EstimateSnapshot(s *core.Snapshot, x []float64) ([]float64, error) {
	shuffled, err := core.NewHistory(s.Dim(), s.Metrics()...)
	if err != nil {
		return nil, err
	}
	// One permutation per history version: every plan scored against
	// the same history sees the same sample.
	for _, i := range stats.NewRNG(m.seed ^ int64(s.Version())).Perm(s.Len()) {
		if err := shuffled.Append(s.At(i)); err != nil {
			return nil, err
		}
	}
	return m.dream.EstimateSnapshot(shuffled.Snapshot(), x)
}
