package experiments

import (
	"fmt"
	"runtime"
	"sync"

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
// over repetitions. Repetitions are fully independent (own federation,
// drift and workload seeds), so they run in parallel across the
// (query, repetition) grid.
func RunMRE(sf float64, opts MREOptions) (*MREResult, error) {
	opts.setDefaults()

	type cell struct {
		q      tpch.QueryID
		scores map[string]workload.ModelScore
		err    error
	}
	// One job per (query, repetition) cell; each job derives its seed
	// from its grid position so results are identical to a sequential
	// run regardless of scheduling.
	total := len(tpch.AllQueries) * opts.Reps
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > total {
		workers = total
	}
	idx := make(chan int)
	results := make([]cell, total)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				q := tpch.AllQueries[i/opts.Reps]
				rep := i % opts.Reps
				seed := opts.Seed + int64(rep)*1000 + int64(q)
				c := cell{q: q}
				h, err := workload.NewHarness(seed)
				if err != nil {
					c.err = err
					results[i] = c
					continue
				}
				models, err := workload.PaperModels(seed)
				if err != nil {
					c.err = err
					results[i] = c
					continue
				}
				r, err := h.Run(workload.EvalConfig{
					Query:       q,
					SF:          sf,
					HistorySize: opts.HistorySize,
					TestQueries: opts.TestQueries,
					Seed:        seed,
				}, models)
				if err != nil {
					c.err = err
					results[i] = c
					continue
				}
				c.scores = r.Scores
				results[i] = c
			}
		}()
	}
	for i := 0; i < total; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	res := &MREResult{SF: sf, MRE: make(map[tpch.QueryID]map[string]float64)}
	sums := make(map[tpch.QueryID]map[string]float64)
	for _, c := range results {
		if c.err != nil {
			return nil, c.err
		}
		if sums[c.q] == nil {
			sums[c.q] = make(map[string]float64)
		}
		for name, s := range c.scores {
			sums[c.q][name] += s.TimeMRE
		}
	}
	for q, perModel := range sums {
		avg := make(map[string]float64, len(perModel))
		for name, s := range perModel {
			avg[name] = s / float64(opts.Reps)
		}
		res.MRE[q] = avg
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
