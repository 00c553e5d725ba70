package ml

import (
	"fmt"
	"math"

	"repro/internal/regression"
)

// BML reproduces the IReS Modelling module's model-building process:
// "IReS tests many algorithms and the best model with the smallest
// error is selected." The candidates — the three learners the paper
// names — are evaluated by cross validation on the training window; the
// winner is retrained on the full window.
type BML struct {
	// Seed feeds the stochastic candidates.
	Seed int64
}

// bmlFolds is the cross-validation fold count; it degrades to
// leave-one-out when the window is smaller.
const bmlFolds = 3

// Name implements Learner.
func (BML) Name() string { return "bml" }

// candidates returns the three learners the paper names.
func candidates(seed int64) []Learner {
	return []Learner{
		LeastSquares{},
		Bagging{Bags: 10, Seed: seed},
		MLP{Hidden: 8, Epochs: 150, Seed: seed},
	}
}

// Selection reports which candidate BML picked and why.
type Selection struct {
	Chosen  string
	CVError map[string]float64 // per-candidate cross-validation MRE proxy
}

// Train implements Learner: it cross-validates each candidate and
// returns the winner retrained on the full window.
func (b BML) Train(samples []regression.Sample) (Predictor, error) {
	p, _, err := b.TrainSelect(samples)
	return p, err
}

// TrainSelect is Train plus the selection diagnostics.
func (b BML) TrainSelect(samples []regression.Sample) (Predictor, *Selection, error) {
	if len(samples) == 0 {
		return nil, nil, ErrNoSamples
	}
	cands := candidates(b.Seed)
	folds := min(bmlFolds, len(samples))

	sel := &Selection{CVError: make(map[string]float64, len(cands))}
	bestErr := math.Inf(1)
	var best Learner
	for _, cand := range cands {
		cvErr, ok := crossValidate(cand, samples, folds)
		if !ok {
			sel.CVError[cand.Name()] = math.Inf(1)
			continue
		}
		sel.CVError[cand.Name()] = cvErr
		if cvErr < bestErr {
			bestErr, best = cvErr, cand
		}
	}
	if best == nil {
		// No candidate survived cross validation (window too small to
		// split). Fall back to training each candidate on the full
		// window and keep the first that fits.
		for _, cand := range cands {
			p, err := cand.Train(samples)
			if err == nil {
				sel.Chosen = cand.Name()
				return p, sel, nil
			}
		}
		return nil, nil, fmt.Errorf("ml: bml: no candidate could train on %d samples", len(samples))
	}
	sel.Chosen = best.Name()
	p, err := best.Train(samples)
	if err != nil {
		return nil, nil, fmt.Errorf("ml: bml: winner %q failed on full window: %w", best.Name(), err)
	}
	return p, sel, nil
}

// crossValidate returns the mean absolute relative error of cand across
// k folds. ok is false when no fold could be evaluated (e.g. the
// training split is below the learner's minimum size).
func crossValidate(cand Learner, samples []regression.Sample, folds int) (float64, bool) {
	var errSum float64
	var n int
	for f := 0; f < folds; f++ {
		train, test := foldSplit(samples, folds, f)
		if len(test) == 0 {
			continue
		}
		p, err := cand.Train(train)
		if err != nil {
			continue
		}
		for _, s := range test {
			pred, err := p.Predict(s.X)
			if err != nil {
				continue
			}
			denom := math.Abs(s.C)
			if denom < 1e-12 {
				denom = 1e-12
			}
			errSum += math.Abs(pred-s.C) / denom
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return errSum / float64(n), true
}

// foldSplit deals samples into train/test for fold f of k using a
// deterministic round-robin so time-ordered windows contribute both old
// and new observations to every fold.
func foldSplit(samples []regression.Sample, k, f int) (train, test []regression.Sample) {
	train = make([]regression.Sample, 0, len(samples))
	test = make([]regression.Sample, 0, len(samples)/k+1)
	for i, s := range samples {
		if i%k == f {
			test = append(test, s)
		} else {
			train = append(train, s)
		}
	}
	return train, test
}
