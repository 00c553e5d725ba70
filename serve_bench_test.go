package midas

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/federation"
	"repro/internal/histstore"
	"repro/internal/ires"
	"repro/internal/server"
	"repro/internal/tpch"
)

// ---------------------------------------------------------------------------
// Serving hot path: one submission end to end through the server's
// pooled decode → admission → select → execute → record → encode
// pipeline. TestServeSubmitAllocBudget holds its allocations per
// request to a budget (the pools keep the steady state at single
// digits); the ServeDurable family measures the same path against a
// real WAL, with and without a covering fsync per response.

// buildServeScheduler assembles a full paper-scale scheduler (default
// topology, calibrated scaled executor, DREAM model) with an optional
// durable store, bootstrapped so serving starts warm.
func buildServeScheduler(b testing.TB, store *histstore.Store) *ires.Scheduler {
	b.Helper()
	fed, err := federation.DefaultTopology(1)
	if err != nil {
		b.Fatal(err)
	}
	cal, err := federation.Calibrate(fed, federation.CalibrationSF, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ires.SchedulerConfig{
		NodeChoices: []int{1, 2, 4},
		Seed:        1,
	}
	if store != nil {
		// Assigned only when non-nil: a typed-nil *Store in the
		// HistoryStore interface would dodge the scheduler's nil check.
		cfg.Store = store
	}
	sched, err := ires.NewDREAMScheduler(fed, cal, 0.1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sched.Bootstrap(tpch.QueryQ12, 30); err != nil {
		b.Fatal(err)
	}
	return sched
}

// fixedSweepSched pins PlanSweep to a precomputed sweep while selection,
// execution and history recording stay real. This models the coalesced
// steady state — under load most requests join an in-flight sweep
// rather than leading one — so the benchmark isolates the per-request
// serving cost the pools are designed to flatten.
type fixedSweepSched struct {
	*ires.Scheduler
	sweep *ires.Sweep
}

func (f *fixedSweepSched) PlanSweep(ctx context.Context, q tpch.QueryID) (*ires.Sweep, error) {
	return f.sweep, nil
}

// ReleaseSweep keeps the pinned sweep: it serves every request.
func (f *fixedSweepSched) ReleaseSweep(*ires.Sweep) {}

// newFixedSweepSched builds the serving scheduler and pins its Q12
// sweep.
func newFixedSweepSched(b testing.TB, store *histstore.Store) *fixedSweepSched {
	b.Helper()
	sched := buildServeScheduler(b, store)
	sw, err := sched.PlanSweep(context.Background(), tpch.QueryQ12)
	if err != nil {
		b.Fatal(err)
	}
	return &fixedSweepSched{Scheduler: sched, sweep: sw}
}

// newServeBench wires a one-tenant server around sched.
func newServeBench(b testing.TB, cfg server.Config, sched server.QueryScheduler) *server.Server {
	b.Helper()
	srv, err := server.NewWithSchedulers(cfg, map[string]server.QueryScheduler{"bench": sched}, []tpch.QueryID{tpch.QueryQ12})
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// noDeadline is the embedder configuration: no per-request deadline, so
// a submission driven with context.Background() builds no context at
// all — the floor of the serving path, not what midasd runs.
var noDeadline = server.Config{RequestTimeout: -1}

var serveBody = []byte(`{"query": "Q12", "weights": [1, 1]}`)

// BenchmarkServeHotPath measures one full submission — decode,
// admission, Pareto selection, simulated execution, history append,
// response encode — with the sweep precomputed (the coalesced steady
// state), histories in memory and no request deadline: the floor under
// every midasd request. TestServeSubmitAllocBudget pins its allocs/op
// and those of the default configuration.
func BenchmarkServeHotPath(b *testing.B) {
	srv := newServeBench(b, noDeadline, newFixedSweepSched(b, nil))
	ctx := context.Background()
	var resp bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp.Reset()
		if status := srv.ServeSubmit(ctx, serveBody, &resp); status != http.StatusOK {
			b.Fatalf("submit = %d: %s", status, resp.String())
		}
	}
}

// BenchmarkServeServedCold is the `solo` workload's request without the
// transport: a server.New tenant of Q12 alone under the default Config,
// so every request leads its own sweep and window search, each under a
// fresh cancellable context as net/http hands every handler one. It is
// the in-process layer number beside solo's end-to-end one.
func BenchmarkServeServedCold(b *testing.B) {
	srv, err := server.New(server.Config{Federations: []server.FederationSpec{{Name: "solo", Queries: []string{"Q12"}}}})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Drain(context.Background())
	body := []byte(`{"federation":"solo","query":"Q12","weights":[1,1]}`)
	var resp bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp.Reset()
		ctx, cancel := context.WithCancel(context.Background())
		status := srv.ServeSubmit(ctx, body, &resp)
		cancel()
		if status != http.StatusOK {
			b.Fatalf("submit = %d: %s", status, resp.String())
		}
	}
}

// BenchmarkTenantBuild is one cold tenant build, what a boot pays per
// federation before it serves: server.New of the `solo` workload's spec
// (Q12 alone; the calibration database generated and the four studied
// queries run on it, the scheduler built and bootstrapped), then Drain.
// Nothing outlives an op, so every op is as cold as a boot. It is the
// layer number beside the benchmark's setup_s; BenchmarkCalibrate
// (`./internal/federation`) times the calibration alone.
func BenchmarkTenantBuild(b *testing.B) {
	cfg := server.Config{Federations: []server.FederationSpec{{Name: "solo", Queries: []string{"Q12"}}}}
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		srv, err := server.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Drain(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// The allocation budgets of the serving paths the layer ledger times:
// the alloc tests gate them, and TestLayerLedger holds the ledger's
// newest rows to them.
const (
	hotPathAllocBudget     = 2 // TestServeSubmitAllocBudget, no-deadline
	servedColdAllocBudget  = 3 // TestServeSubmitAllocBudget, served-cold
	historyPageAllocBudget = 6 // TestHistoryPageAllocBudget
	// withCancelAllocs is what the fresh context.WithCancel that
	// BenchmarkServeServedCold makes per call allocates.
	withCancelAllocs = 2
)

// raceEnabled is set by race_test.go when the race detector is
// compiled in: sync.Pool drops entries at random there, so allocation
// counts mean nothing.
var raceEnabled bool

// TestServeSubmitAllocBudget is the regression gate on the pooled
// request path: allocations per submission are deterministic, so they
// are a test, not a benchmark to compare. Four configurations — the
// no-deadline floor BenchmarkServeHotPath times; what midasd runs on a
// coalesced request, the default Config (30 s request deadline) under a
// long-lived cancellable context; the same under a fresh cancellable
// context per call, as net/http hands every handler one; and a
// server.New tenant of Q12 alone where each request leads its own sweep
// and window search, as the `solo` workload serves them. The first two
// budgets are equal: a deadline nothing waits on allocates nothing, nor
// does it hang a child on the request's context. The third pays only
// for the context it is handed (context.WithCancel's 2). The request's
// names are reused from the last one, the response is appended into
// the caller's buffer and each leg's append copies into the history's
// spare capacity, so none of them allocates.
func TestServeSubmitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	fixed := newFixedSweepSched(t, nil)
	cold, err := server.New(server.Config{Federations: []server.FederationSpec{{Name: "solo", Queries: []string{"Q12"}}}})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Drain(context.Background())
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	defaults := newServeBench(t, server.Config{}, fixed)
	for _, tc := range []struct {
		name string
		srv  *server.Server
		// ctx is the context of every call; nil: a fresh cancellable one
		// per call.
		ctx    context.Context
		budget float64
	}{
		{"no-deadline", newServeBench(t, noDeadline, fixed), context.Background(), hotPathAllocBudget},
		{"default-config", defaults, cancellable, 2},
		{"fresh-context", defaults, nil, 4},
		{"served-cold", cold, cancellable, servedColdAllocBudget},
	} {
		srv := tc.srv
		var resp bytes.Buffer
		allocs := testing.AllocsPerRun(200, func() {
			resp.Reset()
			ctx := tc.ctx
			if ctx == nil {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(context.Background())
				defer cancel()
			}
			if status := srv.ServeSubmit(ctx, serveBody, &resp); status != http.StatusOK {
				t.Fatalf("submit = %d: %s", status, resp.String())
			}
		})
		t.Logf("%s: %.1f allocs per submission, budget %.0f", tc.name, allocs, tc.budget)
		if allocs > tc.budget {
			t.Errorf("%s: over the allocation budget", tc.name)
		}
	}
}

// TestPlanSweepAllocBudget is the same kind of gate for the sweep, in
// both shapes of caller. Both score on the linear route, with no
// feature rows. The serving cycle — PlanSweep, DecideFromSweep,
// ReleaseSweep, what a server runs per shared sweep — finds last round's
// storage in the pool (sweep header, cost matrix, front), so it
// allocates only what the round keeps: the window fit of the new
// history version, the outcome and the decision (the recorded
// observation is copied into the history's spare capacity). A library
// PlanSweep that keeps its sweep misses the pool every time: its count
// does not scale with the lattice. In bytes, a sweep that scores every
// plan — the bootstrap history's fits disagree in β₄'s sign — pays for
// the matrix alone beyond that: an object count alone would price 48 KB
// of per-plan row headers at 1. Once the fits agree, a sweep scores
// only the 64 row ends, into the round's own storage, so what it
// allocates is that storage and the front: the 32 KB matrix is gone,
// and its budget is a sixth of the full sweep's. Deterministic, hence a
// test with pinned figures and no baseline to compare against.
func TestPlanSweepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ctx := context.Background()
	measure := func(what string, plans int, run func()) (allocs, size float64) {
		const runs = 50
		allocs = testing.AllocsPerRun(runs, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		size = float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s, %d plans: %.1f allocs, %.0f B", what, plans, allocs, size)
		return allocs, size
	}
	pol := ires.Policy{Weights: []float64{1, 1}}
	// keep measures a kept sweep of a fresh 2·maxNodes² lattice, after
	// serving cycles until a sweep scores only row ends when rowEnds is
	// set.
	keep := func(what string, maxNodes int, rowEnds bool) (allocs, size float64) {
		sched := wideScheduler(t, 42, maxNodes, 0.1, nil)
		for round := 0; ; round++ {
			sw, err := sched.PlanSweep(ctx, tpch.QueryQ12)
			if err != nil {
				t.Fatal(err)
			}
			if full := sw.Costs.Len() == len(sw.Plans); full != rowEnds {
				sched.ReleaseSweep(sw)
				break
			}
			if round == 50 {
				t.Fatalf("%s: 50 rounds, and every sweep scored all %d plans", what, len(sw.Plans))
			}
			if _, err := sched.DecideFromSweep(sw, pol); err != nil {
				t.Fatal(err)
			}
			sched.ReleaseSweep(sw)
		}
		// Two collections empty the pool: every sweep below misses it.
		runtime.GC()
		runtime.GC()
		return measure(what, 2*maxNodes*maxNodes, func() {
			if _, err := sched.PlanSweep(ctx, tpch.QueryQ12); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, smallBytes := keep("kept sweep", 3, false)
	large, largeBytes := keep("kept sweep, every plan", 32, false)
	ends, endsBytes := keep("kept sweep, row ends", 32, true)
	if max(large, ends)-small > 2 {
		t.Errorf("2,048 plans cost %.0f allocations more than 18: the count scales with the lattice again", max(large, ends)-small)
	}
	// The pool miss: the round's storage, its matrix when it outgrows
	// that, the front's indices and the front's rows.
	const keepBudget = 4
	if large > keepBudget || ends > keepBudget {
		t.Errorf("kept 2,048-plan sweep: %.1f allocs scoring every plan, %.1f scoring row ends, budget %d", large, ends, keepBudget)
	}
	// Per plan: len(federation.Metrics)·8 B of matrix, and slack.
	const bytesBudget, perPlanBudget = 40 << 10, 20
	if perPlan := (largeBytes - smallBytes) / (2048 - 18); largeBytes > bytesBudget || perPlan > perPlanBudget {
		t.Errorf("kept 2,048-plan sweep of every plan: %.0f B (budget %d), %.1f B per plan over the 18-plan sweep (budget %d)",
			largeBytes, bytesBudget, perPlan, perPlanBudget)
	}
	// The round's storage with room for 128 candidate rows, the front's
	// indices and rows, and slack: no matrix.
	const endsBytesBudget = bytesBudget / 6
	if endsBytes > endsBytesBudget {
		t.Errorf("kept 2,048-plan sweep of row ends: %.0f B, budget %d", endsBytes, endsBytesBudget)
	}

	sched := wideScheduler(t, 42, 32, 0.1, nil)
	served, servedBytes := measure("serving cycle", 2048, func() {
		sw, err := sched.PlanSweep(ctx, tpch.QueryQ12)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sched.DecideFromSweep(sw, pol); err != nil {
			t.Fatal(err)
		}
		sched.ReleaseSweep(sw)
	})
	const serveBudget, serveBytesBudget = 3, 1536
	if served > serveBudget || servedBytes > serveBytesBudget {
		t.Errorf("2,048-plan serving cycle: %.1f allocs (budget %d), %.0f B (budget %d)",
			served, serveBudget, servedBytes, serveBytesBudget)
	}
}

// benchServeDurable is BenchmarkServeHotPath against a real WAL, from
// 64 closed-loop submitters: concurrent submissions are what share a
// covering fsync. With reader, one more goroutine takes Snapshots of the
// query's history in a loop, as midasd's sweeps do beside its appends.
func benchServeDurable(b *testing.B, opts histstore.Options, reader bool) {
	store, err := histstore.Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	sched := newFixedSweepSched(b, store)
	srv := newServeBench(b, noDeadline, sched)
	ctx := context.Background()
	if reader {
		stop, done := make(chan struct{}), make(chan struct{})
		defer func() { close(stop); <-done }()
		go func() {
			defer close(done)
			h := sched.History(tpch.QueryQ12)
			for {
				select {
				case <-stop:
					return
				default:
					_ = h.Snapshot().Len()
				}
			}
		}()
	}
	// Durable submissions block on fsync, not CPU: run many goroutines
	// per core so there is concurrency to share one even on small
	// machines.
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var resp bytes.Buffer
		for pb.Next() {
			resp.Reset()
			if status := srv.ServeSubmit(ctx, serveBody, &resp); status != http.StatusOK {
				b.Fatalf("submit = %d: %s", status, resp.String())
			}
		}
	})
}

// BenchmarkServeDurable spans the durability ladder docs/performance.md
// tabulates: WAL without fsync, WAL with a covering fsync before every
// response, and the latter beside a reader of the same history.
func BenchmarkServeDurable(b *testing.B) {
	b.Run("wal", func(b *testing.B) { benchServeDurable(b, histstore.Options{}, false) })
	b.Run("fsync", func(b *testing.B) { benchServeDurable(b, histstore.Options{Fsync: true}, false) })
	b.Run("fsync/readers", func(b *testing.B) { benchServeDurable(b, histstore.Options{Fsync: true}, true) })
}

// ---------------------------------------------------------------------------
// History read: GET /v1/history/Q12?limit=50, the page the `durable`
// workload reads as one request in ten, through srv.Handler() on a
// history of bootstrapped and served observations.

// newHistoryBench serves submissions into the bench tenant's Q12
// history until it holds more than one page, bounded as midasd bounds a
// served history, and returns the server, its handler and a page
// request.
func newHistoryBench(tb testing.TB) (*server.Server, http.Handler, *http.Request) {
	tb.Helper()
	sched := newFixedSweepSched(tb, nil)
	sched.History(tpch.QueryQ12).SetRetain(1024)
	srv := newServeBench(tb, noDeadline, sched)
	submitN(tb, srv, 40)
	return srv, srv.Handler(), httptest.NewRequest(http.MethodGet, "/v1/history/Q12?limit=50", nil)
}

// submitN serves n submissions through srv.
func submitN(tb testing.TB, srv *server.Server, n int) {
	tb.Helper()
	var resp bytes.Buffer
	for range n {
		resp.Reset()
		if status := srv.ServeSubmit(context.Background(), serveBody, &resp); status != http.StatusOK {
			tb.Fatalf("submit = %d: %s", status, resp.String())
		}
	}
}

// pageSink is a ResponseWriter that keeps only the status and the body
// length, so a measurement counts the handler's work and no recorder's.
type pageSink struct {
	header    http.Header
	status, n int
}

func (s *pageSink) Header() http.Header         { return s.header }
func (s *pageSink) WriteHeader(status int)      { s.status = status }
func (s *pageSink) Write(p []byte) (int, error) { s.n += len(p); return len(p), nil }

// serve runs one request through h into the emptied sink.
func (s *pageSink) serve(tb testing.TB, h http.Handler, r *http.Request) {
	clear(s.header)
	s.status, s.n = 0, 0
	h.ServeHTTP(s, r)
	if s.status != http.StatusOK || s.n == 0 {
		tb.Fatalf("history page: status %d, %d bytes", s.status, s.n)
	}
}

// BenchmarkHistoryPage times one 50-observation page: query parsing,
// snapshot, rendering and the write, without a network in the way.
// Repeat re-reads one page, so once warm every cost is copied from the
// query's cost cache. Polled is the durable workload's dashboard: a read
// after every nine untimed submissions, so 41 of the page's 50
// observations were on the read before.
func BenchmarkHistoryPage(b *testing.B) {
	b.Run("Repeat", func(b *testing.B) { benchHistoryPage(b, 0) })
	b.Run("Polled", func(b *testing.B) { benchHistoryPage(b, 9) })
}

// benchHistoryPage reads the page after every appends submissions.
func benchHistoryPage(b *testing.B, appends int) {
	srv, h, req := newHistoryBench(b)
	sink := &pageSink{header: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if appends > 0 {
			b.StopTimer()
			submitN(b, srv, appends)
			b.StartTimer()
		}
		sink.serve(b, h, req)
	}
}

// TestHistoryPageAllocBudget gates the page's allocations: the parsed
// query string, the Content-Length value, the mux's path match and the
// length's digits. The body buffer is pooled, the Content-Type value
// shared, the metric names read in place, and no observation allocates.
func TestHistoryPageAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, h, req := newHistoryBench(t)
	sink := &pageSink{header: make(http.Header)}
	allocs := testing.AllocsPerRun(200, func() { sink.serve(t, h, req) })
	t.Logf("%.1f allocs per 50-observation page (%d bytes), budget %d", allocs, sink.n, historyPageAllocBudget)
	if allocs > historyPageAllocBudget {
		t.Errorf("history page: %.1f allocs, budget %d", allocs, historyPageAllocBudget)
	}
}
