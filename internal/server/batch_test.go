package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ires"
	"repro/internal/tpch"
)

// TestSharedSweepCoalesces pins the batching contract at the tenant
// level, where it is deterministic: while one sweep is in flight, every
// submission of the same query joins it and receives the identical
// Sweep from a single PlanSweep call.
func TestSharedSweepCoalesces(t *testing.T) {
	stub := &stubSched{block: make(chan struct{}), started: make(chan struct{})}
	tn := newTenant("test", stub, tpch.AllQueries, false)
	ctx := context.Background()

	type result struct {
		sw        *ires.Sweep
		coalesced bool
		err       error
	}
	const followers = 10
	results := make(chan result, followers+1)
	run := func() {
		b, co, err := tn.sharedSweep(ctx, tpch.QueryQ12)
		if err != nil {
			results <- result{nil, co, err}
			return
		}
		results <- result{b.sweep, co, err}
	}

	go run() // leader
	<-stub.started
	// The batch stays pending until the sweep finishes, so every
	// follower launched now must join it; wait until all of them are
	// verifiably parked on the batch before releasing the sweep.
	for i := 0; i < followers; i++ {
		go run()
	}
	batch := pendingBatch(t, tn, tpch.QueryQ12)
	waitFor(t, 5*time.Second, func() bool { return batch.users.Load() == 1+followers }, nil)
	close(stub.block)

	sweeps := make(map[*ires.Sweep]bool)
	coalesced := 0
	for i := 0; i < followers+1; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		sweeps[r.sw] = true
		if r.coalesced {
			coalesced++
		}
	}
	if len(sweeps) != 1 {
		t.Fatalf("got %d distinct sweeps, want 1", len(sweeps))
	}
	if got := stub.calls(); got != 1 {
		t.Fatalf("PlanSweep calls = %d, want 1", got)
	}
	if coalesced != followers {
		t.Fatalf("coalesced = %d, want %d", coalesced, followers)
	}
}

// TestFollowerLeadsAfterLeaderGivesUp pins what a leader's own context
// ending does to its batch: the leader returns at once with its context
// error, and a follower with a live context is not failed by it — it
// leads the next sweep itself.
func TestFollowerLeadsAfterLeaderGivesUp(t *testing.T) {
	stub := &stubSched{block: make(chan struct{}), started: make(chan struct{})}
	tn := newTenant("test", stub, tpch.AllQueries, false)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := tn.sharedSweep(leaderCtx, tpch.QueryQ12)
		leaderDone <- err
	}()
	<-stub.started

	followerDone := make(chan error, 1)
	go func() {
		b, coalesced, err := tn.sharedSweep(context.Background(), tpch.QueryQ12)
		if err == nil && (b.sweep == nil || coalesced) {
			err = errors.New("follower should have led a sweep of its own")
		}
		followerDone <- err
	}()
	batch := pendingBatch(t, tn, tpch.QueryQ12)
	waitFor(t, 5*time.Second, func() bool { return batch.users.Load() == 2 }, nil)

	// The leader gives up mid-sweep and returns immediately...
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v", err)
	}
	// ...and the follower, its own context live, leads the second sweep.
	waitFor(t, 5*time.Second, func() bool { return stub.calls() == 2 }, nil)
	close(stub.block)
	if err := <-followerDone; err != nil {
		t.Fatalf("follower err = %v", err)
	}
	if got := stub.calls(); got != 2 {
		t.Fatalf("PlanSweep calls = %d, want 2", got)
	}
	if sweeps, coalesced := tn.stats.sweeps.Load(), tn.stats.coalesced.Load(); sweeps != 2 || coalesced != 0 {
		t.Fatalf("sweeps = %d, coalesced = %d; want 2 and 0", sweeps, coalesced)
	}
}

// TestLeaderFailureIsShared pins the other half: a sweep that fails
// while its leader's context is live failed for the query, and its
// followers share that error instead of re-running it.
func TestLeaderFailureIsShared(t *testing.T) {
	boom := errors.New("boom")
	stub := &stubSched{block: make(chan struct{}), started: make(chan struct{}), failSweep: boom}
	tn := newTenant("test", stub, tpch.AllQueries, false)

	errs := make(chan error, 2)
	run := func() {
		_, _, err := tn.sharedSweep(context.Background(), tpch.QueryQ12)
		errs <- err
	}
	go run()
	<-stub.started
	go run()
	batch := pendingBatch(t, tn, tpch.QueryQ12)
	waitFor(t, 5*time.Second, func() bool { return batch.users.Load() == 2 }, nil)
	close(stub.block)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if got := stub.calls(); got != 1 {
		t.Fatalf("PlanSweep calls = %d, want 1", got)
	}
}

// releaseCounter is a stub scheduler with the ReleaseSweep capability
// that counts, per sweep, the decisions made from it and the releases,
// and how many decisions preceded the release.
type releaseCounter struct {
	stubSched
	// afterSweep, when set, runs once a sweep is built, before it is
	// returned.
	afterSweep func()

	rmu       sync.Mutex
	decided   map[*ires.Sweep]int
	released  map[*ires.Sweep]int
	atRelease map[*ires.Sweep]int
}

func (r *releaseCounter) PlanSweep(ctx context.Context, q tpch.QueryID) (*ires.Sweep, error) {
	sw, err := r.stubSched.PlanSweep(ctx, q)
	if err == nil && r.afterSweep != nil {
		r.afterSweep()
	}
	return sw, err
}

func (r *releaseCounter) DecideFromSweep(sw *ires.Sweep, pol ires.Policy) (*ires.Decision, error) {
	dec, err := r.stubSched.DecideFromSweep(sw, pol)
	r.rmu.Lock()
	r.decided[sw]++
	r.rmu.Unlock()
	return dec, err
}

func (r *releaseCounter) ReleaseSweep(sw *ires.Sweep) {
	r.rmu.Lock()
	defer r.rmu.Unlock()
	r.released[sw]++
	r.atRelease[sw] = r.decided[sw]
}

// wantOneRelease: exactly one sweep was released, once, after the given
// number of decisions from it — and no nil sweep ever was.
func (r *releaseCounter) wantOneRelease(t *testing.T, decisions int) {
	t.Helper()
	r.rmu.Lock()
	defer r.rmu.Unlock()
	if len(r.released) != 1 {
		t.Fatalf("released %d distinct sweeps (%v), want 1", len(r.released), r.released)
	}
	for sw, n := range r.released {
		if sw == nil || n != 1 || r.atRelease[sw] != decisions {
			t.Fatalf("sweep %p released %d times after %d decisions; want a non-nil sweep released once after %d",
				sw, n, r.atRelease[sw], decisions)
		}
	}
}

// TestSweepBatchReleasesOnce pins the lifetime of a shared sweep: every
// request holding a batch lets go exactly once on every path out of
// submit, and the last one releases the sweep — after the last decision
// made from it, never while one is pending, and never a failed sweep.
func TestSweepBatchReleasesOnce(t *testing.T) {
	const q = tpch.QueryQ12
	pol := ires.Policy{Weights: []float64{1, 1}}
	bg := context.Background()
	setup := func(t *testing.T, blocked bool) (*releaseCounter, *Server, *tenant) {
		rc := &releaseCounter{
			decided:   make(map[*ires.Sweep]int),
			released:  make(map[*ires.Sweep]int),
			atRelease: make(map[*ires.Sweep]int),
		}
		if blocked {
			rc.block, rc.started = make(chan struct{}), make(chan struct{})
		}
		srv, err := NewWithSchedulers(Config{}, map[string]QueryScheduler{"test": rc}, tpch.AllQueries)
		if err != nil {
			t.Fatal(err)
		}
		return rc, srv, srv.tenants["test"]
	}
	submit := func(ctx context.Context, srv *Server, tn *tenant, done chan<- error) {
		_, _, err := srv.submit(ctx, tn, q, pol)
		done <- err
	}

	t.Run("leader and followers", func(t *testing.T) {
		rc, srv, tn := setup(t, true)
		const followers = 4
		errs := make(chan error, followers+1)
		go submit(bg, srv, tn, errs)
		<-rc.started
		for i := 0; i < followers; i++ {
			go submit(bg, srv, tn, errs)
		}
		b := pendingBatch(t, tn, q)
		waitFor(t, 5*time.Second, func() bool { return b.users.Load() == 1+followers }, nil)
		close(rc.block)
		for i := 0; i < 1+followers; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		rc.wantOneRelease(t, 1+followers)
	})

	t.Run("follower gives up waiting", func(t *testing.T) {
		rc, srv, tn := setup(t, true)
		leader, follower := make(chan error, 1), make(chan error, 1)
		go submit(bg, srv, tn, leader)
		<-rc.started
		ctx, cancel := context.WithCancel(bg)
		go submit(ctx, srv, tn, follower)
		b := pendingBatch(t, tn, q)
		waitFor(t, 5*time.Second, func() bool { return b.users.Load() == 2 }, nil)
		cancel()
		if err := <-follower; !errors.Is(err, context.Canceled) {
			t.Fatalf("follower err = %v", err)
		}
		if n := b.users.Load(); n != 1 {
			t.Fatalf("%d holders after the follower left, want the leader alone", n)
		}
		close(rc.block)
		if err := <-leader; err != nil {
			t.Fatal(err)
		}
		rc.wantOneRelease(t, 1)
	})

	t.Run("leader cancelled mid-sweep", func(t *testing.T) {
		rc, srv, tn := setup(t, true)
		leader, follower := make(chan error, 1), make(chan error, 1)
		ctx, cancel := context.WithCancel(bg)
		go submit(ctx, srv, tn, leader)
		<-rc.started
		go submit(bg, srv, tn, follower)
		b := pendingBatch(t, tn, q)
		waitFor(t, 5*time.Second, func() bool { return b.users.Load() == 2 }, nil)
		cancel()
		if err := <-leader; !errors.Is(err, context.Canceled) {
			t.Fatalf("leader err = %v", err)
		}
		waitFor(t, 5*time.Second, func() bool { return rc.calls() == 2 }, nil)
		close(rc.block)
		if err := <-follower; err != nil {
			t.Fatal(err)
		}
		if n := b.users.Load(); n != 0 {
			t.Fatalf("the abandoned batch still has %d holders", n)
		}
		rc.wantOneRelease(t, 1) // the follower's retry; the nil sweep never
	})

	t.Run("deadline between sweep and decide", func(t *testing.T) {
		rc, srv, tn := setup(t, false)
		ctx, cancel := context.WithCancel(bg)
		rc.afterSweep = cancel
		done := make(chan error, 1)
		submit(ctx, srv, tn, done)
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
		rc.wantOneRelease(t, 0)
	})
}

// pendingBatch returns the tenant's in-flight batch for q.
func pendingBatch(t *testing.T, tn *tenant, q tpch.QueryID) *sweepBatch {
	t.Helper()
	tn.mu.Lock()
	defer tn.mu.Unlock()
	b := tn.pending[q]
	if b == nil {
		t.Fatal("no pending batch")
	}
	return b
}

// TestSubmitHammer fires many concurrent POST /v1/queries (the -race
// detector watches the whole stack) and requires every response to
// succeed while same-query submissions coalesce into far fewer sweeps.
func TestSubmitHammer(t *testing.T) {
	stub := &stubSched{}
	srv := newTestServer(t, stub, Config{QueueDepth: 4096})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ts.Config.SetKeepAlivesEnabled(true)

	const clients = 64
	const perClient = 5
	var wg sync.WaitGroup
	var errs atomic.Int64
	queries := []string{"Q12", "Q13", "Q14", "Q17"}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, body, err := tryPostQuery(ts.URL, QueryRequest{
					Query:   queries[c%len(queries)],
					Weights: []float64{1, 1},
				})
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					errs.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d body %s", c, resp.StatusCode, body)
					errs.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if errs.Load() != 0 {
		t.Fatalf("%d failed submissions", errs.Load())
	}
	st := srv.tenants["test"].stats
	total := int64(clients * perClient)
	if st.completed.Load() != total {
		t.Fatalf("completed = %d, want %d", st.completed.Load(), total)
	}
	if st.coalesced.Load()+st.sweeps.Load() != total {
		t.Fatalf("coalesced(%d) + sweeps(%d) != %d",
			st.coalesced.Load(), st.sweeps.Load(), total)
	}
}

// TestDeadlineHammer submits one query from many goroutines against a
// slow sweep, every other request with a deadline shorter than the
// sweep: such a request gives up while it follows (arming its deadline
// to wait) or answers 504 after the sweep it led. Pooled batches and
// deadlines are reused throughout; the -race detector watches, and every
// sweep must still be released exactly once, after its last decision.
func TestDeadlineHammer(t *testing.T) {
	rc := &releaseCounter{
		afterSweep: func() { spin(2 * time.Millisecond) },
		decided:    make(map[*ires.Sweep]int),
		released:   make(map[*ires.Sweep]int),
		atRelease:  make(map[*ires.Sweep]int),
	}
	srv, err := NewWithSchedulers(Config{QueueDepth: 4096}, map[string]QueryScheduler{"test": rc}, tpch.AllQueries)
	if err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{[]byte(`{"query": "Q12"}`), []byte(`{"query": "Q12", "timeout_ms": 1}`)}
	const clients, perClient = 16, 40
	var ok, expired atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp bytes.Buffer
			for i := 0; i < perClient; i++ {
				resp.Reset()
				switch status := srv.ServeSubmit(context.Background(), bodies[(c+i)%2], &resp); status {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusGatewayTimeout:
					expired.Add(1)
				default:
					t.Errorf("status %d: %s", status, resp.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	st := srv.tenants["test"].stats
	t.Logf("%d ok, %d expired; %d sweeps, %d coalesced", ok.Load(), expired.Load(), st.sweeps.Load(), st.coalesced.Load())
	if ok.Load()+expired.Load() != clients*perClient || st.timeouts.Load() != expired.Load() {
		t.Fatalf("%d ok + %d expired of %d, %d timeouts counted", ok.Load(), expired.Load(), clients*perClient, st.timeouts.Load())
	}
	if ok.Load() < clients*perClient/2 {
		t.Fatalf("only %d requests without a deadline answered 200", ok.Load())
	}
	if expired.Load() == 0 {
		t.Fatal("no request gave up: the hammer exercised no deadline")
	}
	rc.rmu.Lock()
	defer rc.rmu.Unlock()
	if int64(len(rc.released)) != st.sweeps.Load() {
		t.Fatalf("%d sweeps released of %d run", len(rc.released), st.sweeps.Load())
	}
	for sw, n := range rc.released {
		if n != 1 || rc.atRelease[sw] != rc.decided[sw] {
			t.Fatalf("sweep released %d times, after %d of its %d decisions", n, rc.atRelease[sw], rc.decided[sw])
		}
	}
	if len(srv.tenants["test"].pending) != 0 {
		t.Fatal("a batch is still pending")
	}
}

// TestRequestTimeout504 verifies that a submission whose budget expires
// while its sweep is still running surfaces as 504, and that the
// timeout is counted.
func TestRequestTimeout504(t *testing.T) {
	stub := &stubSched{block: make(chan struct{})}
	defer close(stub.block)
	srv := newTestServer(t, stub, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts.URL, QueryRequest{Query: "Q12", TimeoutMS: 30})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := srv.tenants["test"].stats.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts = %d", got)
	}
}

// busySweepSched is a stub whose sweep holds the CPU for spin without
// ever yielding, and which counts the decisions it is asked for.
type busySweepSched struct {
	stubSched
	spin    time.Duration
	decides atomic.Int64
}

func (s *busySweepSched) PlanSweep(ctx context.Context, q tpch.QueryID) (*ires.Sweep, error) {
	spin(s.spin)
	return s.stubSched.PlanSweep(ctx, q)
}

// spin holds the CPU for d, as a CPU-bound sweep does.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

func (s *busySweepSched) DecideFromSweep(sw *ires.Sweep, pol ires.Policy) (*ires.Decision, error) {
	s.decides.Add(1)
	return s.stubSched.DecideFromSweep(sw, pol)
}

// TestDeadlinePassedDuringSweepIs504: a deadline that passes while the
// request's own sweep holds the only processor has expired, even though
// no timer can have run yet to say so. The request answers 504 without
// executing, so it records nothing.
func TestDeadlinePassedDuringSweepIs504(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	stub := &busySweepSched{spin: 3 * time.Millisecond}
	srv, err := NewWithSchedulers(Config{}, map[string]QueryScheduler{"test": stub}, tpch.AllQueries)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"query": "Q12", "timeout_ms": 1}`)
	const calls = 20
	for i := 0; i < calls; i++ {
		var resp bytes.Buffer
		if status := srv.ServeSubmit(context.Background(), body, &resp); status != http.StatusGatewayTimeout {
			t.Fatalf("call %d: status = %d, body %s", i, status, resp.String())
		}
	}
	if n := stub.decides.Load(); n != 0 {
		t.Fatalf("DecideFromSweep ran %d times past the deadline", n)
	}
	if got := srv.tenants["test"].stats.timeouts.Load(); got != calls {
		t.Fatalf("timeouts = %d, want %d", got, calls)
	}
}

// deadlineSched sends how far off its context's deadline was when
// each sweep began (0: no deadline).
type deadlineSched struct {
	stubSched
	left chan time.Duration
}

func (s *deadlineSched) PlanSweep(ctx context.Context, q tpch.QueryID) (*ires.Sweep, error) {
	var left time.Duration
	if d, ok := ctx.Deadline(); ok {
		left = time.Until(d)
	}
	s.left <- left
	return s.stubSched.PlanSweep(ctx, q)
}

// TestRequestTimeoutOnlyShortens: a request's timeout_ms shortens the
// server's deadline and never removes or collapses it — not even a
// value whose conversion to a time.Duration would overflow.
func TestRequestTimeoutOnlyShortens(t *testing.T) {
	for _, tc := range []struct {
		name     string
		server   time.Duration
		ms       int64
		min, max time.Duration // 0, 0: no deadline
	}{
		{"shorter", time.Minute, 2000, time.Second, 2 * time.Second},
		{"longer", time.Minute, 120_000, 50 * time.Second, time.Minute},
		{"max int64", time.Minute, 9223372036854775807, 50 * time.Second, time.Minute},
		{"wraps to microseconds", time.Minute, 9223372036854776, 50 * time.Second, time.Minute},
		{"no server deadline", -1, 2000, time.Second, 2 * time.Second},
		{"no server deadline, max int64", -1, 9223372036854775807, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := &deadlineSched{left: make(chan time.Duration, 1)}
			srv, err := NewWithSchedulers(Config{RequestTimeout: tc.server}, map[string]QueryScheduler{"test": stub}, tpch.AllQueries)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			if resp, body := postQuery(t, ts.URL, QueryRequest{Query: "Q12", TimeoutMS: tc.ms}); resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, body %s", resp.StatusCode, body)
			}
			if left := <-stub.left; left < tc.min || left > tc.max {
				t.Fatalf("sweep deadline %v away, want within [%v, %v]", left, tc.min, tc.max)
			}
		})
	}
}

// TestQueueFull429 verifies bounded admission: with a depth-1 queue and
// the only slot held by a blocked request, the next submission is shed
// with 429 instead of queueing.
func TestQueueFull429(t *testing.T) {
	stub := &stubSched{block: make(chan struct{}), started: make(chan struct{})}
	srv := newTestServer(t, stub, Config{QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, _, err := tryPostQuery(ts.URL, QueryRequest{Query: "Q12"})
		if err != nil {
			first <- 0
			return
		}
		first <- resp.StatusCode
	}()
	<-stub.started

	resp, body := postQuery(t, ts.URL, QueryRequest{Query: "Q13"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := srv.tenants["test"].stats.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d", got)
	}
	close(stub.block)
	if got := <-first; got != http.StatusOK {
		t.Fatalf("first request status = %d", got)
	}
}

// TestDrainCompletesInflight verifies graceful shutdown: requests in
// flight when Drain begins complete with 200, new submissions and
// health checks are refused with 503, and Drain returns once the last
// in-flight request finishes.
func TestDrainCompletesInflight(t *testing.T) {
	stub := &stubSched{block: make(chan struct{}), started: make(chan struct{})}
	srv := newTestServer(t, stub, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	inflight := make(chan int, 1)
	go func() {
		resp, _, err := tryPostQuery(ts.URL, QueryRequest{Query: "Q12"})
		if err != nil {
			inflight <- 0
			return
		}
		inflight <- resp.StatusCode
	}()
	<-stub.started

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	waitFor(t, 5*time.Second, func() bool { return srv.draining.Load() }, nil)

	// New work is refused while draining...
	resp, _ := postQuery(t, ts.URL, QueryRequest{Query: "Q13"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", hresp.StatusCode)
	}
	var sr StatsResponse
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if !sr.Draining {
		t.Fatal("stats should report draining")
	}

	// ...but the in-flight request still completes, and only then does
	// Drain return.
	select {
	case err := <-drained:
		t.Fatalf("drain returned before in-flight completed: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(stub.block)
	if got := <-inflight; got != http.StatusOK {
		t.Fatalf("in-flight request status = %d", got)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// drainWitness is a stub scheduler that counts the executions finishing
// after the test has seen Drain return — the work a closed store would
// have lost.
type drainWitness struct {
	stubSched
	drained *atomic.Bool
	late    *atomic.Int64
}

func (d *drainWitness) DecideFromSweep(sw *ires.Sweep, pol ires.Policy) (*ires.Decision, error) {
	runtime.Gosched() // widen the window between admission and completion
	dec, err := d.stubSched.DecideFromSweep(sw, pol)
	if d.drained.Load() {
		d.late.Add(1)
	}
	return dec, err
}

// TestDrainSubmitHammer races Drain against a crowd of submitters (run
// with -race). The in-flight counter and the draining flag are two
// independent atomics; this is the property their ordering must give:
// every submission is either served in full before Drain returns (200)
// or refused (503), and none is served afterwards.
func TestDrainSubmitHammer(t *testing.T) {
	for round := 0; round < 50; round++ {
		var drained atomic.Bool
		var late, served atomic.Int64
		scheds := map[string]QueryScheduler{
			"a": &drainWitness{drained: &drained, late: &late},
			"b": &drainWitness{drained: &drained, late: &late},
		}
		srv, err := NewWithSchedulers(Config{QueueDepth: 4096}, scheds, tpch.AllQueries)
		if err != nil {
			t.Fatal(err)
		}
		const workers = 16
		feds, queries := []string{"a", "b"}, []string{"Q12", "Q13", "Q14"}
		body := func(w int) []byte {
			return []byte(fmt.Sprintf(`{"federation": %q, "query": %q}`, feds[w%2], queries[w%3]))
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var resp bytes.Buffer
				// Submit until refused: a worker sees 200s, then the drain.
				for {
					resp.Reset()
					switch status := srv.ServeSubmit(context.Background(), body(w), &resp); status {
					case http.StatusOK:
						served.Add(1)
					case http.StatusServiceUnavailable:
						return
					default:
						t.Errorf("status %d: %s", status, resp.String())
						return
					}
				}
			}(w)
		}
		waitFor(t, 5*time.Second, func() bool { return served.Load() >= workers }, nil)
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatalf("drain: %v", err)
		}
		drained.Store(true)
		wg.Wait()
		var resp bytes.Buffer
		for w := 0; w < 2; w++ {
			if status := srv.ServeSubmit(context.Background(), body(w), &resp); status != http.StatusServiceUnavailable {
				t.Fatalf("submission after Drain returned = %d, want 503", status)
			}
		}
		if late.Load() != 0 {
			t.Fatalf("round %d: %d submissions executed after Drain returned", round, late.Load())
		}
	}
}

// TestDrainTimeout verifies that a drain bounded by an already-expired
// context reports the requests it abandoned.
func TestDrainTimeout(t *testing.T) {
	stub := &stubSched{block: make(chan struct{}), started: make(chan struct{})}
	srv := newTestServer(t, stub, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Released before ts.Close, which waits for the stuck request: an
	// aborted drain leaves the requests it gave up on to their own
	// deadlines.
	defer close(stub.block)

	go func() { _, _, _ = tryPostQuery(ts.URL, QueryRequest{Query: "Q12"}) }()
	<-stub.started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := srv.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "1 requests still in flight") {
		t.Fatalf("drain with stuck request: %v", err)
	}
}
