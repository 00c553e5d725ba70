package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/histstore"
	"repro/internal/metrics"
	"repro/internal/moo"
	"repro/internal/regression"
	"repro/internal/server"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one workload's runs produced; it is the
// per-workload object of result.json.
type workloadResult struct {
	Name      string `json:"name"`
	Disturbed bool   `json:"disturbed"`
	// Digest covers the first decisions of the untraced run's warm-up
	// and block, which one connection sends in a fixed order: equal code
	// gives an equal digest. TwinDigest and TracedDigest cover the first
	// decisions of the traced run's untraced twin and of the traced
	// stack; tracing is observation-only, so they must be equal.
	Digest        string                 `json:"digest,omitempty"`
	TwinDigest    string                 `json:"twin_digest,omitempty"`
	TracedDigest  string                 `json:"traced_digest,omitempty"`
	Metrics       map[string]metricValue `json:"end_to_end,omitempty"`
	Diagnostics   map[string]metricValue `json:"diagnostics,omitempty"`
	Layers        map[string]metricValue `json:"per_layer,omitempty"`
	Boots         []float64              `json:"boots_s,omitempty"` // scaled to the reference speed
	RawBoots      []float64              `json:"raw_boots_s,omitempty"`
	Rounds        []round                `json:"rounds,omitempty"`
	BlockRequests int                    `json:"block_requests,omitempty"`
	BlockSamples  int                    `json:"block_decisions,omitempty"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	// Checks lists every correctness check that failed.
	Checks    []string `json:"failed_checks"`
	TraceFile string   `json:"trace_file,omitempty"`
}

func (r *workloadResult) fail(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// runner holds the settings every workload runs under.
type runner struct {
	env     *env
	seconds float64 // wall time of the timed rounds of one untraced run
	rounds  int     // timed rounds sharing it
	outDir  string

	prepared map[string]bool
}

// prepare runs the workload's untimed preparation once per process.
func (r *runner) prepare(w *workload) error {
	if w.prepare == nil || r.prepared[w.name] {
		return nil
	}
	if r.prepared == nil {
		r.prepared = make(map[string]bool)
	}
	r.prepared[w.name] = true
	return w.prepare(r.env)
}

// scale shrinks a frozen request count for the smoke pass.
func (r *runner) scale(n int) int {
	if r.env.smoke {
		return max(n/20, 30)
	}
	return n
}

// checker builds the per-response check: the decision names the query
// asked for, a plan inside the lattice, the full sweep, estimates that
// are costs and measurements that are positive.
func (w *workload) checker() func(*reqSpec, *server.QueryResponse) error {
	inMenu := make(map[int]bool, len(w.nodeChoices))
	for _, n := range w.nodeChoices {
		inMenu[n] = true
	}
	positive := func(v float64) bool { return v > 0 && !math.IsInf(v, 0) }
	// The model clamps a negative prediction to 0, so an estimate may
	// read exactly 0; a measurement may not.
	estimate := func(v float64) bool { return v >= 0 && !math.IsInf(v, 0) }
	return func(spec *reqSpec, r *server.QueryResponse) error {
		switch {
		case r.Query != spec.query || r.Plan.Query != spec.query || r.Federation != spec.fed:
			return fmt.Errorf("asked %s/%s, answered %s/%s with a plan for %s", spec.fed, spec.query, r.Federation, r.Query, r.Plan.Query)
		case !inMenu[r.Plan.NodesLeft] || !inMenu[r.Plan.NodesRight]:
			return fmt.Errorf("plan %+v is outside the lattice", r.Plan)
		case r.PlanSpace != w.planSpace || r.PlansEstimated != w.planSpace || r.ParetoSize < 1:
			return fmt.Errorf("plan space %d, estimated %d, pareto %d; want a full sweep of %d", r.PlanSpace, r.PlansEstimated, r.ParetoSize, w.planSpace)
		case !estimate(r.EstimatedTimeS) || !estimate(r.EstimatedUSD) || !positive(r.MeasuredTimeS) || !positive(r.MeasuredUSD):
			return fmt.Errorf("impossible cost: estimated (%v, %v), measured (%v, %v)", r.EstimatedTimeS, r.EstimatedUSD, r.MeasuredTimeS, r.MeasuredUSD)
		}
		return nil
	}
}

// heapMB forces a collection and returns the live heap.
func heapMB() float64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// stolenSlack is how much longer than -seconds the timed phase may last
// to replace rounds the hypervisor stole from.
const stolenSlack = 1.25

// e2e is the untraced run: set-up, warm-up, the fixed-count block, the
// timed rounds, the checks. One connection throughout: the run is then
// one sequential program and its timings are the code's, not the
// scheduler's (README, "Why one core and one connection"). Every boot
// and every round lies between two readings of the box's speed and is
// scaled to the reference speed.
func (r *runner) e2e(w *workload, res *workloadResult) error {
	if err := r.prepare(w); err != nil {
		return err
	}
	clock, err := newYardstick()
	if err != nil {
		return err
	}
	defer clock.close()
	// Phase 0: cold boots; the last one serves the run.
	var st *stack
	boots := w.boots
	if r.env.smoke {
		boots = 1
	}
	for i := 0; i < boots; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return fmt.Errorf("closing boot %d: %w", i-1, err)
			}
		}
		// Every boot starts from a collected heap, not from whatever the
		// boot before it left behind.
		runtime.GC()
		speed, err := clock.read()
		if err != nil {
			return err
		}
		var took time.Duration
		if st, took, err = w.boot(r.env, i, nil); err != nil {
			return fmt.Errorf("boot %d: %w", i, err)
		}
		after, err := clock.read()
		if err != nil {
			return err
		}
		res.RawBoots = append(res.RawBoots, took.Seconds())
		res.Boots = append(res.Boots, took.Seconds()/slowdown(speed, after))
	}
	defer func() { st.close() }()
	// Warm-up and the fixed-count block replay the request mix of seed 0
	// whatever -seed says, so that what they count is comparable between
	// runs of different seeds.
	fixed := *r.env
	fixed.seed = 0
	d := newDriver(st, 1, w.seq(&fixed), w.checker(), nil)
	defer d.close()
	var total load

	// Phase 1: warm-up, discarded. Pools fill, lazy set-up finishes.
	total.count(d.sequential(r.scale(w.warmup)))

	// Phase 2: the fixed-count block. Counts, heap and MRE come from a
	// fixed sequence of requests, so they repeat exactly however slow the
	// box is; the timed rounds below may then be as long as -seconds
	// allows without changing them.
	var before, after runtime.MemStats
	cpuBefore := processCPU()
	runtime.ReadMemStats(&before)
	block := total.count(d.sequential(r.scale(w.block)))
	runtime.ReadMemStats(&after)
	cpuAfter := processCPU()
	done := float64(block.attempted - block.failed)
	var errTime, errUSD []float64
	for _, s := range block.samples {
		if s.ok && s.submit {
			errTime = append(errTime, s.relErrTime)
			errUSD = append(errUSD, s.relErrUSD)
		}
	}
	res.BlockRequests, res.BlockSamples = block.attempted, len(errTime)
	e2e := map[string]float64{
		"setup_s":        median(res.Boots),
		"mre_time":       mean(errTime),
		"mre_money":      mean(errUSD),
		"allocs_per_req": float64(after.Mallocs-before.Mallocs) / done,
	}
	res.Digest = d.digest()
	block, errTime, errUSD = nil, nil, nil // the benchmark's own samples are not the program's heap
	e2e["heap_live_mb"] = heapMB()
	diag := map[string]float64{"cpu_us_per_req": (cpuAfter - cpuBefore) * 1e6 / done}

	// Phase 3 sends the request mix of -seed; the counter restarts so
	// request k of the timed rounds is the same in every run.
	d.seq = w.seq(r.env)
	d.next.Store(0)

	// Phase 3: -rounds timed rounds sharing -seconds, requests back to
	// back. A round the hypervisor stole from is kept in the output but
	// does not count towards -seconds, until stolenSlack is used up.
	roundDur := time.Duration(r.seconds / float64(r.rounds) * float64(time.Second))
	deadline := time.Now().Add(time.Duration(r.seconds * stolenSlack * float64(time.Second)))
	speed, err := clock.read()
	if err != nil {
		return err
	}
	for calm := 0; calm < r.rounds && time.Now().Before(deadline); {
		cpu := readCPUTimes()
		l := total.count(d.sequentialFor(roundDur))
		steal := stealShare(cpu, readCPUTimes())
		before := speed
		if speed, err = clock.read(); err != nil {
			return err
		}
		rd := timedRound(l, steal, slowdown(before, speed))
		res.Rounds = append(res.Rounds, rd)
		if rd.calm() {
			calm++
		}
	}
	for _, m := range []string{"throughput_rps", "sat_p50_ms", "sat_p90_ms"} {
		e2e[m], res.Disturbed = calmMedian(res.Rounds, m)
	}
	for _, m := range []string{"sat_p99_ms", "slowdown", "raw_sat_p50_ms"} {
		diag[m], _ = calmMedian(res.Rounds, m)
	}
	diag["steal_share"] = medianOf(res.Rounds, func(r round) float64 { return r.Steal })

	// Phase 4: checks.
	r.verify(w, st, &total, res)
	e2e["ok_share"] = 1 - float64(total.failed)/float64(total.attempted)
	res.Attempted, res.Failed = res.Attempted+total.attempted, res.Failed+total.failed
	res.Metrics = withUnits(endToEnd, e2e)
	res.Diagnostics = withUnits(diagnostics, diag)
	return st.close()
}

// verify runs the end-of-run checks of one stack and records failures.
func (r *runner) verify(w *workload, st *stack, total *load, res *workloadResult) {
	if total.failed > 0 {
		res.fail("%d of %d requests failed, first: %v", total.failed, total.attempted, total.firstErr)
	}
	if err := st.checkHistories(total.acked); err != nil {
		res.fail("%v", err)
	}
	if w.verify != nil {
		if err := w.verify(r.env, st, total.acked); err != nil {
			res.fail("%v", err)
		}
	}
}

func medianOf(rounds []round, f func(round) float64) float64 {
	vals := make([]float64, len(rounds))
	for i, r := range rounds {
		vals[i] = f(r)
	}
	return median(vals)
}

func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// timedRound folds one round of back-to-back requests into its metrics,
// scaled to the reference speed: the box ran slow times slower than that
// while the round lasted.
func timedRound(l *load, steal, slow float64) round {
	lat := rtts(l.samples)
	return round{
		Samples: len(lat),
		Steal:   steal,
		Values: map[string]float64{
			"throughput_rps": float64(len(lat)) / l.elapsed.Seconds() * slow,
			"sat_p50_ms":     quantile(lat, 0.5) / slow,
			"sat_p90_ms":     quantile(lat, 0.9) / slow,
			"sat_p99_ms":     quantile(lat, 0.99) / slow,
			"slowdown":       slow,
			"raw_sat_p50_ms": quantile(lat, 0.5),
		},
	}
}

// ---------------------------------------------------------------------
// The traced run

// twinConns is how many connections drive the part of the traced run
// that counts what only concurrent requests show: coalesced sweeps, and
// in the append probe the appends one group fsync covers.
const twinConns = 2

// traced is the --trace 1 run: an untraced stack for the counts only
// concurrency shows and for the tracing overhead, then the same
// workload rebuilt with the decorators and driven by one connection,
// then the probes that time a single layer from outside.
func (r *runner) traced(w *workload, res *workloadResult) error {
	if err := r.prepare(w); err != nil {
		return err
	}
	n := r.scale(w.traceReqs)
	layers := make(map[string]float64)

	// Untraced twin: one connection for the baseline round trip and the
	// digest, then twinConns connections for the coalescing counts.
	plain, took, err := w.boot(r.env, 100, nil)
	if err != nil {
		return fmt.Errorf("untraced boot: %w", err)
	}
	layers["server.tenant_build_ms"] = took.Seconds() * 1e3 / float64(plain.builds)
	layers["server.heap_after_setup_mb"] = heapMB()
	var total load
	twin := newDriver(plain, twinConns, w.seq(r.env), w.checker(), nil)
	baseline := total.count(twin.sequential(n))
	res.TwinDigest = twin.digest()
	statsBefore, err1 := plain.stats()
	total.count(twin.closedCount(n))
	twin.close()
	stats, err2 := plain.stats()
	if err := errors.Join(err1, err2); err != nil {
		return errors.Join(err, plain.close())
	}
	if completed := stats.Completed - statsBefore.Completed; completed > 0 {
		layers["server.coalesce_ratio"] = float64(stats.Coalesced-statsBefore.Coalesced) / float64(completed)
		layers["server.sweeps_per_req"] = float64(stats.Sweeps-statsBefore.Sweeps) / float64(completed)
	}
	layers["server.rejected"] = float64(stats.Rejected)
	layers["server.timeouts"] = float64(stats.Timeouts)
	r.verify(w, plain, &total, res)
	res.Attempted, res.Failed = res.Attempted+total.attempted, res.Failed+total.failed
	if err := plain.close(); err != nil {
		return err
	}

	// The traced stack.
	tr := newTracer()
	st, _, err := w.boot(r.env, 101, tr)
	if err != nil {
		return fmt.Errorf("traced boot: %w", err)
	}
	defer func() { st.close() }()
	before, err := st.scrape()
	if err != nil {
		return err
	}
	walBefore := st.dataBytes()
	total = load{}
	d := newDriver(st, 1, w.seq(r.env), w.checker(), tr)
	tr.enable(true)
	tracedLoad := total.count(d.sequential(n))
	tr.enable(false)
	d.close()
	res.TracedDigest = d.digest()
	after, err := st.scrape()
	if err != nil {
		return err
	}
	walAfter := st.dataBytes()
	r.verify(w, st, &total, res)
	res.Attempted, res.Failed = res.Attempted+total.attempted, res.Failed+total.failed
	if res.TwinDigest != res.TracedDigest {
		res.fail("tracing changed the decisions: digest %s untraced, %s traced", res.TwinDigest, res.TracedDigest)
	}

	res.TraceFile = filepath.Join(r.outDir, "trace-"+w.name+".jsonl")
	if err := tr.write(res.TraceFile); err != nil {
		return err
	}
	spans, err := readTrace(res.TraceFile)
	if err != nil {
		return err
	}
	for k, v := range spanLedger(spans, min(r.env.gomaxprocs, w.planSpace)) {
		layers[k] = v
	}
	if base := quantile(rtts(baseline.samples), 0.5); base > 0 {
		layers["diag.trace_overhead_share"] = quantile(rtts(tracedLoad.samples), 0.5)/base - 1
	}

	// Ratios from the /metrics deltas over the traced block.
	delta := func(family string) float64 { return after.sum(family) - before.sum(family) }
	submits := float64(max(sumAcked(total.acked), 1))
	searches := delta("midas_window_searches_total")
	hits, misses := delta("midas_model_cache_hits_total"), delta("midas_model_cache_misses_total")
	layers["core.searches_per_req"] = searches / submits
	if hits+misses > 0 {
		layers["core.cache_hit_ratio"] = hits / (hits + misses)
	}
	if searches > 0 {
		layers["core.window_size_mean"] = delta("midas_window_incremental_steps_total") / searches
		layers["regression.solves_per_search"] = delta("midas_window_refits_total") / searches / float64(len(federation.Metrics))
	}
	layers["ires.plans_estimated"] = delta("midas_plans_estimated_total") / submits
	layers["ires.plan_space"] = float64(w.planSpace)
	layers["cluster.frames_shipped_per_req"] = delta("midas_cluster_frames_shipped_total") / submits
	layers["cluster.degraded_total"] = after.sum("midas_cluster_replication_degraded_total")
	if walAfter > 0 {
		layers["histstore.wal_bytes_per_append"] = float64(walAfter-walBefore) / submits
		if secs := after.sum("midas_histstore_recovery_seconds_sum"); secs > 0 {
			layers["histstore.recover_obs_per_s"] = after.sum("midas_histstore_recovered_observations_total") / secs
		}
	}

	// Probes: one layer at a time, from outside.
	if err := r.probe(w, st, layers); err != nil {
		return err
	}
	res.Layers = withUnits(perLayer, layers)
	return st.close()
}

func sumAcked(acked map[string]int) int {
	total := 0
	for _, n := range acked {
		total += n
	}
	return total
}

// dataBytes is the size of every node's data directory.
func (st *stack) dataBytes() int64 {
	var total int64
	for _, n := range st.nodes {
		if n.dataDir != "" {
			total += dirBytes(n.dataDir)
		}
	}
	return total
}

// probeReps is how often a probe repeats its call; it reports the median.
const probeReps = 200

// timeMedian runs f reps times and returns the median duration in µs.
func timeMedian(reps int, f func() error) (float64, error) {
	us := make([]float64, reps)
	for i := range us {
		began := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(began)) / 1e3
	}
	return median(us), nil
}

// probe times single layers through their public entry points, on the
// traced stack's own state where the layer needs state.
func (r *runner) probe(w *workload, st *stack, layers map[string]float64) error {
	seq := w.seq(r.env)
	_, spec := seq(0)
	for i := uint64(1); !spec.submit; i++ {
		_, spec = seq(i)
	}
	addr, err := st.addrOf(spec.fed)
	if err != nil {
		return err
	}
	reps := probeReps
	if r.env.smoke {
		reps = 10
	}

	// server: ServeSubmit in-process, no HTTP — the cross-check that
	// splits a request into transport and everything else.
	var owner *server.Server
	for _, n := range st.nodes {
		if n.addr == addr {
			owner = n.srv
		}
	}
	body := spec.raw[bytes.Index(spec.raw, []byte("\r\n\r\n"))+4:]
	var buf bytes.Buffer
	if layers["server.serve_submit_us"], err = timeMedian(reps, func() error {
		buf.Reset()
		if status := owner.ServeSubmit(context.Background(), body, &buf); status != http.StatusOK {
			return fmt.Errorf("ServeSubmit: status %d: %s", status, buf.String())
		}
		return nil
	}); err != nil {
		return err
	}

	// moo: ParetoFront on the sweep's own cost matrix.
	for _, sched := range st.scheds {
		if sw := sched.lastSweep.Load(); sw != nil {
			if layers["moo.pareto_us"], err = timeMedian(reps, func() error {
				_, err := moo.ParetoFront(sw.Costs)
				return err
			}); err != nil {
				return err
			}
			layers["moo.pareto_size"] = float64(len(sw.FrontIdx))
		}
	}

	// core and regression: Algorithm 1 with the model cache off, and the
	// fitter's growth loop alone, both on the workload's own history.
	var page server.HistoryResponse
	if err := getJSON(addr, "/v1/history/"+spec.query+"?limit=1000000&federation="+spec.fed, &page); err != nil {
		return err
	}
	hist, err := core.NewHistory(federation.FeatureDim, federation.Metrics...)
	if err != nil {
		return err
	}
	mmax := 3 * (federation.FeatureDim + 2)
	est, err := core.NewEstimator(core.Config{MMax: mmax, CacheSize: -1})
	if err != nil {
		return err
	}
	// One cold search per new history version, as serving pays it: the
	// history grows by one observation before every timed call.
	recent := min(reps, len(page.Observations)-mmax)
	grow := func(o server.ObservationJSON) error {
		return hist.Append(core.Observation{X: o.X, Costs: o.Costs})
	}
	for i := len(page.Observations) - 1; i >= recent; i-- { // pages are newest first
		if err := grow(page.Observations[i]); err != nil {
			return err
		}
	}
	next := recent
	if layers["core.window_search_us"], err = timeMedian(recent, func() error {
		next--
		if err := grow(page.Observations[next]); err != nil {
			return err
		}
		_, err := est.EstimateCostValue(hist, page.Observations[next].X)
		return err
	}); err != nil {
		return err
	}
	fitter := regression.NewIncrementalFitter(federation.FeatureDim, len(federation.Metrics))
	minM := regression.MinObservations(federation.FeatureDim)
	if layers["regression.search_us"], err = timeMedian(reps, func() error {
		fitter.Reset(federation.FeatureDim, len(federation.Metrics))
		for m := 1; m <= min(mmax, hist.Len()); m++ {
			o := hist.At(hist.Len() - m)
			if err := fitter.AddObservation(o.X, o.Costs); err != nil {
				return err
			}
			if m >= minM {
				if err := fitter.Solve(regression.FitOptions{}); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// histstore: appends through Open + OpenHistory + History.Append with
	// fsync and group commit on — what the workload's WAL would cost if it
	// had to survive a machine crash, which its runs leave out because the
	// box's disk is too unsteady to gate on (README). Group commit only
	// coalesces concurrent appends, so its two ratios come from the
	// concurrent probe.
	if st.nodes[0].dataDir != "" {
		appends := r.scale(400)
		one, err := appendProbe(filepath.Join(r.env.workDir, "probe-1"), 1, appends)
		if err != nil {
			return err
		}
		many, err := appendProbe(filepath.Join(r.env.workDir, "probe-n"), twinConns, appends)
		if err != nil {
			return err
		}
		layers["histstore.append_us"], layers["histstore.append_conc_us"] = one.medianUs, many.medianUs
		layers["histstore.fsyncs_per_append"], layers["histstore.commit_batch_mean"] = many.fsyncsPerAppend, many.batchMean
	}

	// cluster: the routing decision every clustered request pays.
	if len(st.nodes) > 1 {
		members := make([]cluster.Member, len(st.nodes))
		for i, n := range st.nodes {
			members[i] = cluster.Member{ID: n.id, Addr: "http://" + n.addr}
		}
		ring, err := cluster.NewRing(members, 0)
		if err != nil {
			return err
		}
		table := cluster.NewTable(ring)
		feds := clusterFedNames(r.env)
		const lookups = 100000
		began := time.Now()
		for i := 0; i < lookups; i++ {
			routeSink = table.Owner(feds[i%len(feds)]).ID
		}
		layers["cluster.route_lookup_ns"] = float64(time.Since(began)) / lookups
	}
	return nil
}

// routeSink keeps the compiler from deleting the probed lookup.
var routeSink string

// appendCost is what one append probe measured.
type appendCost struct {
	medianUs        float64
	fsyncsPerAppend float64
	batchMean       float64 // appends one group fsync covered
}

// appendProbe appends n observations from each of writers goroutines to
// one fresh shard under fsync + group commit.
func appendProbe(dir string, writers, n int) (appendCost, error) {
	reg := metrics.NewRegistry()
	store, err := histstore.Open(dir, histstore.Options{Fsync: true, GroupCommit: true, Metrics: reg, MetricsStore: "probe"})
	if err != nil {
		return appendCost{}, err
	}
	hist, err := store.OpenHistory("probe", federation.FeatureDim, federation.Metrics)
	if err != nil {
		return appendCost{}, errors.Join(err, store.Close())
	}
	var mu sync.Mutex
	var us []float64
	var first error
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				x := make([]float64, federation.FeatureDim)
				for j := range x {
					x[j] = float64(w*n + i + j)
				}
				began := time.Now()
				err := hist.Append(core.Observation{X: x, Costs: []float64{float64(i + 1), float64(i+1) / 2}})
				mine = append(mine, float64(time.Since(began))/1e3)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			us = append(us, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	cost := appendCost{medianUs: median(us)}
	var text bytes.Buffer
	werr := reg.WritePrometheus(&text)
	parsed, perr := metrics.ParseText(&text)
	if werr == nil && perr == nil && len(us) > 0 {
		sc := scrape(parsed.Values)
		cost.fsyncsPerAppend = 1 - sc.sum("midas_histstore_fsyncs_avoided_total")/float64(len(us))
		if batches := sc.sum("midas_histstore_commit_batch_size_count"); batches > 0 {
			cost.batchMean = sc.sum("midas_histstore_commit_batch_size_sum") / batches
		}
	}
	return cost, errors.Join(first, werr, perr, store.Close(), os.RemoveAll(dir))
}
