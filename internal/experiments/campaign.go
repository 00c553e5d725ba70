package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/workload"
)

// A cell is one run of the evaluation protocol: the history that cfg
// draws on a harness of its own (seeded with cfg.Seed), and the models
// scored on it side by side. Which models are scored does not change
// the history. rep only names the cell in errors.
type cell struct {
	cfg    workload.EvalConfig
	rep    int
	models []workload.ModelSpec
}

// runCell runs one cell and returns its harness and result. A model
// with a failed prediction or an undefined MRE has no score, and the
// cell fails rather than let it read as a perfect one.
func runCell(c cell) (*workload.Harness, *workload.EvalResult, error) {
	h, err := workload.NewHarness(c.cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	res, err := h.Run(c.cfg, c.models)
	if err != nil {
		return nil, nil, err
	}
	for _, m := range c.models {
		if s := res.Scores[m.Name]; s.Err != nil {
			return nil, nil, fmt.Errorf("experiments: %v rep %d: model %s has no score (%d failed predictions): %w",
				c.cfg.Query, c.rep, m.Name, s.Failures, s.Err)
		}
	}
	return h, res, nil
}

// runCells runs the cells at GOMAXPROCS and returns their results in
// cell order, or the error of the first failed cell in that order.
// Every cell owns its harness and models, so no result depends on how
// the cells were scheduled.
func runCells(cells []cell) ([]*workload.EvalResult, error) {
	results := make([]*workload.EvalResult, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(cells)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(cells); i = int(next.Add(1) - 1) {
				_, results[i], errs[i] = runCell(cells[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// meanMRE is the named model's time-MRE averaged over results, summed
// in result order.
func meanMRE(results []*workload.EvalResult, name string) float64 {
	var sum float64
	for _, r := range results {
		sum += r.Scores[name].TimeMRE
	}
	return sum / float64(len(results))
}
