package server

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// tenantStats aggregates one federation's serving counters. All
// methods are safe for concurrent use.
type tenantStats struct {
	received      atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	rejected      atomic.Int64
	timeouts      atomic.Int64
	coalesced     atomic.Int64
	sweeps        atomic.Int64
	histTruncated atomic.Int64
	checkpoints   atomic.Int64
	checkpointErr atomic.Int64
	// plansEstimated totals QEPs scored (after pruning); planSpace holds
	// the most recent sweep's full lattice size. Both are fed from the
	// decision on the serving hot path, so they are plain atomics.
	plansEstimated atomic.Int64
	planSpace      atomic.Int64
}

// register publishes the counters as scrape-time collectors reading
// the very atomics /v1/stats reports — one source of truth, two
// renderings.
func (t *tenantStats) register(reg *metrics.Registry, federation string) {
	counter := func(name, help string, v *atomic.Int64) {
		reg.CounterFunc(name, help,
			func() float64 { return float64(v.Load()) },
			"federation", federation)
	}
	counter("midas_requests_received_total",
		"Query submissions that passed request validation.", &t.received)
	counter("midas_requests_completed_total",
		"Scheduling rounds that returned a decision.", &t.completed)
	counter("midas_requests_failed_total",
		"Submissions that failed server-side (HTTP 500).", &t.failed)
	counter("midas_requests_rejected_total",
		"Submissions shed at the admission queue (HTTP 429).", &t.rejected)
	counter("midas_request_timeouts_total",
		"Submissions that exceeded their budget or were abandoned (HTTP 504).", &t.timeouts)
	counter("midas_requests_coalesced_total",
		"Completed requests that joined another request's plan sweep.", &t.coalesced)
	counter("midas_sweeps_started_total",
		"Plan sweeps actually run; completed - coalesced requests led one.", &t.sweeps)
	counter("midas_history_responses_truncated_total",
		"GET /v1/history responses that stopped short of observation 0, by limit or at base.", &t.histTruncated)
	counter("midas_checkpoints_total",
		"Tenant history checkpoints (periodic, admin and drain-time).", &t.checkpoints)
	counter("midas_checkpoint_failures_total",
		"Tenant history checkpoints that failed.", &t.checkpointErr)
	reg.GaugeFunc("midas_sweep_coalescing_ratio",
		"Fraction of completed requests served from a shared plan sweep.",
		func() float64 {
			completed := t.completed.Load()
			if completed == 0 {
				return 0
			}
			return float64(t.coalesced.Load()) / float64(completed)
		},
		"federation", federation)
}

// snapshot renders the stats for /v1/stats. The percentiles are
// lifetime estimates from latency, the tenant's request-duration
// histogram summed over its queries — the series a /metrics scrape
// reads, so histogram_quantile over that scrape gives these numbers.
func (t *tenantStats) snapshot(latency *metrics.Histogram) FederationStats {
	return FederationStats{
		Received:           t.received.Load(),
		Completed:          t.completed.Load(),
		Failed:             t.failed.Load(),
		Rejected:           t.rejected.Load(),
		Timeouts:           t.timeouts.Load(),
		Coalesced:          t.coalesced.Load(),
		Sweeps:             t.sweeps.Load(),
		PlansEstimated:     t.plansEstimated.Load(),
		PlanSpace:          t.planSpace.Load(),
		HistoryTruncated:   t.histTruncated.Load(),
		Checkpoints:        t.checkpoints.Load(),
		CheckpointFailures: t.checkpointErr.Load(),
		P50MS:              latency.Quantile(0.50) * 1e3,
		P90MS:              latency.Quantile(0.90) * 1e3,
		P99MS:              latency.Quantile(0.99) * 1e3,
	}
}
