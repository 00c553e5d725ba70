package experiments

import (
	"fmt"

	"repro/internal/tpch"
	"repro/internal/workload"
)

// ModelOrder is the column order of the paper's Tables 3 and 4.
var ModelOrder = []string{"BMLN", "BML2N", "BML3N", "BML", "DREAM"}

// MREOptions tunes the Table 3/4 campaigns.
type MREOptions struct {
	// Reps averages the MRE over this many independent repetitions
	// (fresh federation, drift and workload seeds); default 5.
	Reps int
	// HistorySize and TestQueries follow workload defaults when 0.
	HistorySize, TestQueries int
	// Seed is the campaign base seed.
	Seed int64
}

func (o *MREOptions) setDefaults() {
	if o.Reps <= 0 {
		o.Reps = 5
	}
}

// MREResult carries the numeric results behind Table 3/4 so callers
// (tests, EXPERIMENTS.md generation) can assert on them.
type MREResult struct {
	SF float64
	// MRE[query][model] is the mean time-MRE across repetitions.
	MRE map[tpch.QueryID]map[string]float64
}

// RunMRE executes the Tables 3/4 campaign at the given scale factor:
// for every studied query, evaluate the five Modelling configurations
// on identical drifting workloads and average the Mean Relative Error
// over repetitions. Each (query, repetition) cell is seeded by its
// grid position (Seed + rep·1000 + query) and owns its federation,
// drift and workload, so the cells run in parallel.
func RunMRE(sf float64, opts MREOptions) (*MREResult, error) {
	opts.setDefaults()
	var cells []cell
	for _, q := range tpch.AllQueries {
		for rep := 0; rep < opts.Reps; rep++ {
			seed := opts.Seed + int64(rep)*1000 + int64(q)
			models, err := workload.PaperModels(seed)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell{cfg: workload.EvalConfig{
				Query:       q,
				SF:          sf,
				HistorySize: opts.HistorySize,
				TestQueries: opts.TestQueries,
				Seed:        seed,
			}, rep: rep, models: models})
		}
	}
	results, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	res := &MREResult{SF: sf, MRE: make(map[tpch.QueryID]map[string]float64)}
	for i, q := range tpch.AllQueries {
		reps := results[i*opts.Reps : (i+1)*opts.Reps]
		res.MRE[q] = make(map[string]float64, len(ModelOrder))
		for _, name := range ModelOrder {
			res.MRE[q][name] = meanMRE(reps, name)
		}
	}
	return res, nil
}

// MRETable renders an MREResult in the paper's Table 3/4 layout.
func MRETable(res *MREResult, title string) *Table {
	t := &Table{
		Title:  title,
		Header: append([]string{"Query"}, ModelOrder...),
		Notes: []string{
			"mean relative error of execution-time estimates (eq. 15), lower is better",
		},
	}
	for _, q := range tpch.AllQueries {
		row := []string{fmt.Sprintf("%d", int(q))}
		for _, name := range ModelOrder {
			row = append(row, fmt.Sprintf("%.3f", res.MRE[q][name]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
