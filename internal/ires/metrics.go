package ires

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/tpch"
)

// Scheduler instrumentation. Everything here is observation-only: the
// instruments record what the pipeline did (sweep wall time, plans
// scored, Algorithm 1's window behavior) after the fact and are never
// read back by any decision path, so a metered scheduler produces
// byte-identical decisions to an unmetered one
// (TestInstrumentedDecisionsIdentical pins that down).

// EstimatorStatser is implemented by Modelling modules that expose
// their core estimator's instrumentation (the DREAM variants do); the
// scheduler uses it to publish window-size and model-cache metrics at
// scrape time without touching the estimate path.
type EstimatorStatser interface {
	EstimatorStats() core.EstimatorStats
}

// EstimatorStats implements EstimatorStatser.
func (m *DREAMModel) EstimatorStats() core.EstimatorStats { return m.Est.Stats() }

// EstimatorStats implements EstimatorStatser.
func (m *CompositeDREAMModel) EstimatorStats() core.EstimatorStats { return m.Est.Stats() }

// schedulerObs holds the scheduler's bound instruments; nil on an
// uninstrumented scheduler.
type schedulerObs struct {
	federation     string
	sweepSeconds   *metrics.HistogramVec // {federation, query}
	plansEstimated *metrics.CounterVec   // {federation, query}
	planSpace      *metrics.GaugeVec     // {federation, query}
	candidates     *metrics.CounterVec   // {federation, query}
	sweepErrors    *metrics.CounterVec   // {federation, query}
	bound          sync.Map              // tpch.QueryID → *sweepSeries
}

// instrument registers the scheduler's metrics on reg (see
// SchedulerConfig.Metrics), with every series labeled by the given
// federation name.
func (s *Scheduler) instrument(reg *metrics.Registry, federation string) {
	if federation == "" {
		federation = "default"
	}
	s.obs = &schedulerObs{
		federation: federation,
		sweepSeconds: reg.HistogramVec("midas_sweep_duration_seconds",
			"Wall time of one plan sweep (enumerate, estimate, Pareto-reduce).",
			metrics.DefBuckets, "federation", "query"),
		plansEstimated: reg.CounterVec("midas_plans_estimated_total",
			"Query execution plans swept by the Modelling module: every plan of each sweep's lattice.",
			"federation", "query"),
		planSpace: reg.GaugeVec("midas_plan_space",
			"Size of the QEP lattice of the most recent sweep, every plan of which it sweeps.",
			"federation", "query"),
		candidates: reg.CounterVec("midas_pareto_candidates_total",
			"Cost vectors the Pareto reduction examined: every plan's, or on the linear route with ordered rows each row's best end and its ties.",
			"federation", "query"),
		sweepErrors: reg.CounterVec("midas_sweep_errors_total",
			"Plan sweeps that failed (cancelled, timed out, or estimation error).",
			"federation", "query"),
	}
	if es, ok := s.model.(EstimatorStatser); ok {
		reg.CounterFunc("midas_window_searches_total",
			"Completed Algorithm 1 window searches (one per model-cache miss when the cache is on).",
			func() float64 { return float64(es.EstimatorStats().WindowSearches) },
			"federation", federation)
		reg.CounterFunc("midas_window_refits_total",
			"Cumulative MLR fits performed by Algorithm 1's window growth.",
			func() float64 { return float64(es.EstimatorStats().Refits) },
			"federation", federation)
		reg.CounterFunc("midas_window_refits_avoided_total",
			"Fits after a window search's first growth round (one per metric per round) that reused the accumulated shared Gram instead of refitting over the whole window.",
			func() float64 { return float64(es.EstimatorStats().RefitsAvoided) },
			"federation", federation)
		reg.CounterFunc("midas_window_incremental_steps_total",
			"Rank-1 observation updates folded into shared-Gram fitters by the incremental window search.",
			func() float64 { return float64(es.EstimatorStats().IncrementalSteps) },
			"federation", federation)
		reg.GaugeFunc("midas_window_size",
			"Final window size m of the most recent Algorithm 1 search; growth toward Mmax signals execution-condition drift.",
			func() float64 { return float64(es.EstimatorStats().LastWindowSize) },
			"federation", federation)
		reg.GaugeFunc("midas_window_converged",
			"1 when the most recent window search reached the required R2 on every metric, else 0.",
			func() float64 {
				if es.EstimatorStats().LastConverged {
					return 1
				}
				return 0
			},
			"federation", federation)
		reg.CounterFunc("midas_model_cache_hits_total",
			"Window fits served from the per-(history, version) model cache.",
			func() float64 { return float64(es.EstimatorStats().CacheHits) },
			"federation", federation)
		reg.CounterFunc("midas_model_cache_misses_total",
			"Window fits that required a fresh Algorithm 1 search.",
			func() float64 { return float64(es.EstimatorStats().CacheMisses) },
			"federation", federation)
	}
}

// sweepSeries is one query's sweep instruments, bound once: With
// resolves its labels through a string-keyed map on every call.
type sweepSeries struct {
	seconds    *metrics.Histogram
	plans      *metrics.Counter
	space      *metrics.Gauge
	candidates *metrics.Counter
}

// series returns q's sweep instruments, binding them on q's first
// successful sweep — not up front, which would publish zero-valued
// series for queries the scheduler never serves.
func (o *schedulerObs) series(q tpch.QueryID) *sweepSeries {
	if ss, ok := o.bound.Load(q); ok {
		return ss.(*sweepSeries)
	}
	query := q.String()
	ss, _ := o.bound.LoadOrStore(q, &sweepSeries{
		seconds:    o.sweepSeconds.With(o.federation, query),
		plans:      o.plansEstimated.With(o.federation, query),
		space:      o.planSpace.With(o.federation, query),
		candidates: o.candidates.With(o.federation, query),
	})
	return ss.(*sweepSeries)
}

// observeSweep records one finished (or failed) sweep of plans QEPs —
// the whole lattice, so the count is both the plans estimated and the
// plan space — whose Pareto reduction examined candidates of them: the
// plans it scored.
func (s *Scheduler) observeSweep(q tpch.QueryID, began time.Time, plans, candidates int, err error) {
	o := s.obs
	if o == nil {
		return
	}
	if err != nil {
		o.sweepErrors.With(o.federation, q.String()).Inc()
		return
	}
	ss := o.series(q)
	ss.seconds.Observe(time.Since(began).Seconds())
	ss.plans.Add(float64(plans))
	ss.space.Set(float64(plans))
	ss.candidates.Add(float64(candidates))
}
