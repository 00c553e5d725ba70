package main

import (
	"sort"
	"strings"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
	lower      bool // lower is better
}

// endToEnd lists the gated metrics, measured with tracing off. Names
// are final: BENCHMARK.json fixes a bound for each and later changes
// cite them. error_share is reported as ok_share = 1 − error_share
// because a gated metric may never read 0.
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"throughput_rps", "1/s", false},
	{"sat_p50_ms", "ms", true},
	{"sat_p90_ms", "ms", true},
	{"ok_share", "ratio", false},
	{"mre_time", "ratio", true},
	{"mre_money", "ratio", true},
	{"allocs_per_req", "count", true},
	{"heap_live_mb", "MB", true},
}

// diagnostics are printed beside the end-to-end metrics and never
// gated: on a shared box the tail measures the neighbours.
var diagnostics = []metricDef{
	{"sat_p99_ms", "ms", true},
	{"slowdown", "ratio", true},    // the box against the reference speed, per round
	{"raw_sat_p50_ms", "ms", true}, // sat_p50_ms as the clock read it, unscaled
	{"steal_share", "ratio", true},
	{"cpu_us_per_req", "us", true},
}

// perLayer lists the ledger of the traced run, layer = repo module;
// transport is net/http + loopback + the benchmark's client.
var perLayer = []metricDef{
	{"transport.self_us", "us", true},
	{"server.handler_us", "us", true},
	{"server.self_us", "us", true},
	{"server.serve_submit_us", "us", true},
	{"server.coalesce_ratio", "ratio", false},
	{"server.sweeps_per_req", "ratio", true},
	{"server.rejected", "count", true},
	{"server.timeouts", "count", true},
	{"server.heap_after_setup_mb", "MB", true},
	{"server.tenant_build_ms", "ms", true},
	{"ires.plan_sweep_us", "us", true},
	{"ires.sweep_self_us", "us", true},
	{"ires.plans_estimated", "count", true},
	{"ires.plan_space", "count", true},
	{"ires.decide_us", "us", true},
	{"ires.decide_self_us", "us", true},
	{"moo.pareto_us", "us", true},
	{"moo.pareto_size", "count", true},
	{"core.estimate_calls", "count", true},
	{"core.estimate_total_us", "us", true},
	{"core.estimate_cold_us", "us", true},
	{"core.estimate_warm_ns", "ns", true},
	{"core.window_search_us", "us", true},
	{"core.window_size_mean", "count", true},
	{"core.cache_hit_ratio", "ratio", false},
	{"core.searches_per_req", "ratio", true},
	{"regression.search_us", "us", true},
	{"regression.solves_per_search", "count", true},
	{"federation.execute_us", "us", true},
	{"federation.features_us", "us", true},
	{"histstore.append_us", "us", true},
	{"histstore.append_conc_us", "us", true},
	{"histstore.fsyncs_per_append", "ratio", true},
	{"histstore.commit_batch_mean", "count", false},
	{"histstore.wal_bytes_per_append", "B", true},
	{"histstore.recover_obs_per_s", "1/s", false},
	{"histstore.read_page_us", "us", true},
	{"cluster.route_lookup_ns", "ns", true},
	{"cluster.redirect_share", "ratio", true},
	{"cluster.direct_p50_us", "us", true},
	{"cluster.redirected_p50_us", "us", true},
	{"cluster.replicate_handler_us", "us", true},
	{"cluster.frames_shipped_per_req", "ratio", true},
	{"cluster.degraded_total", "count", true},
	{"diag.client_rtt_p50_us", "us", true},
	{"diag.trace_overhead_share", "ratio", true},
	{"diag.trace_requests", "count", false},
}

// spanLedger computes the span-derived part of the per-layer ledger.
// workers is the size of the sweep's estimation pool, which spreads the
// model calls of one sweep over that many goroutines.
func spanLedger(spans []span, workers int) map[string]float64 {
	self := selfTimes(spans)
	type request struct {
		rtt, handler, handlerSelf, sweep, decide, execute float64
		estN, estTotal, estMax, featTotal                 float64
		posts                                             int
		submit                                            bool
	}
	reqs := make(map[int]*request)
	at := func(id int) *request {
		r := reqs[id]
		if r == nil {
			r = &request{}
			reqs[id] = r
		}
		return r
	}
	var reads, replicates []float64
	for _, s := range spans {
		r := at(s.Req)
		us := float64(s.dur()) / 1e3
		switch {
		case s.Name == countEstimate:
			r.estN += float64(s.Count)
			r.estTotal += float64(s.TotalNs) / 1e3
			r.estMax = max(r.estMax, float64(s.MaxNs)/1e3)
		case s.Name == countFeatures:
			r.featTotal += float64(s.TotalNs) / 1e3
		case s.Name == spanRequest:
			r.rtt = us
		case s.Name == spanPost:
			r.posts++
		case s.Name == spanSweep:
			r.sweep += us
		case s.Name == spanDecide:
			r.decide += us
		case s.Name == spanExecute:
			r.execute += us
		case strings.HasSuffix(s.Name, " POST /v1/queries"):
			r.submit = true
			r.handler += us
			r.handlerSelf += float64(self[s.ID]) / 1e3
		case strings.HasSuffix(s.Name, " POST /v1/admin/replicate"):
			replicates = append(replicates, us)
		case strings.Contains(s.Name, " GET /v1/history/"):
			reads = append(reads, us)
		}
	}
	cols := make(map[string][]float64)
	add := func(name string, v float64) { cols[name] = append(cols[name], v) }
	n, redirected := 0, 0
	for _, r := range reqs {
		if !r.submit || r.rtt == 0 {
			continue
		}
		n++
		add("diag.client_rtt_p50_us", r.rtt)
		add("transport.self_us", r.rtt-r.handler)
		add("server.handler_us", r.handler)
		add("server.self_us", r.handlerSelf)
		if r.posts > 1 {
			redirected++
			add("cluster.redirected_p50_us", r.rtt)
		} else {
			add("cluster.direct_p50_us", r.rtt)
		}
		if r.sweep > 0 {
			add("ires.plan_sweep_us", r.sweep)
			add("ires.sweep_self_us", r.sweep-r.estTotal/float64(workers))
			add("ires.decide_us", r.decide)
			add("ires.decide_self_us", r.decide-r.execute)
			add("federation.execute_us", r.execute)
			add("federation.features_us", r.featTotal)
			add("core.estimate_calls", r.estN)
			add("core.estimate_total_us", r.estTotal)
			add("core.estimate_cold_us", r.estMax)
			if r.estN > 1 {
				add("core.estimate_warm_ns", (r.estTotal-r.estMax)/(r.estN-1)*1e3)
			}
		}
	}
	out := make(map[string]float64)
	for name, vals := range cols {
		sort.Float64s(vals)
		out[name] = quantile(vals, 0.5)
	}
	sort.Float64s(reads)
	sort.Float64s(replicates)
	out["histstore.read_page_us"] = quantile(reads, 0.5)
	out["cluster.replicate_handler_us"] = quantile(replicates, 0.5)
	out["diag.trace_requests"] = float64(n)
	if n > 0 {
		out["cluster.redirect_share"] = float64(redirected) / float64(n)
	}
	return out
}
