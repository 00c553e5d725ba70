package workload

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/server"
)

// fakeMidasd is a minimal stand-in for the daemon: it answers
// /v1/queries like the real server would, without paying for a
// federation build.
func fakeMidasd(t *testing.T, fail *atomic.Bool) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/queries" || r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		var req server.QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		if fail != nil && fail.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(server.QueryResponse{
			Query:     req.Query,
			Coalesced: true,
			Plan:      server.PlanJSON{Query: req.Query, NodesLeft: 1, NodesRight: 1},
		})
	}))
}

func TestRunLoadCounts(t *testing.T) {
	ts := fakeMidasd(t, nil)
	defer ts.Close()

	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:  ts.URL,
		Clients:  4,
		Requests: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 20 || rep.Errors != 0 {
		t.Fatalf("requests/errors = %d/%d, want 20/0", rep.Requests, rep.Errors)
	}
	if rep.Coalesced != 20 {
		t.Fatalf("coalesced = %d", rep.Coalesced)
	}
	if rep.QPS <= 0 || rep.P50MS <= 0 || rep.MaxMS < rep.P99MS {
		t.Fatalf("implausible report: %+v", rep)
	}
	if rep.StatusCounts[http.StatusOK] != 20 {
		t.Fatalf("status counts: %v", rep.StatusCounts)
	}
	if rep.String() == "" {
		t.Fatal("empty render")
	}
}

func TestRunLoadCountsErrors(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	ts := fakeMidasd(t, &fail)
	defer ts.Close()

	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:  ts.URL,
		Clients:  2,
		Requests: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 6 || rep.StatusCounts[http.StatusInternalServerError] != 6 {
		t.Fatalf("errors = %d, statuses %v", rep.Errors, rep.StatusCounts)
	}
}

func TestRunLoadDurationMode(t *testing.T) {
	ts := fakeMidasd(t, nil)
	defer ts.Close()

	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:  ts.URL,
		Clients:  2,
		Duration: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("duration mode made no requests")
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d (deadline cut-offs must not count)", rep.Errors)
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestSummarizePercentileMath pins the report math on known inputs:
// 101 latencies 0..100 ms split across two clients — with linear
// interpolation over n-1 positions the pXX quantile is exactly XX.
func TestSummarizePercentileMath(t *testing.T) {
	var a, b clientResult
	a.statuses = map[int]int{http.StatusOK: 51}
	b.statuses = map[int]int{http.StatusOK: 50}
	for i := 0; i <= 100; i++ {
		if i%2 == 0 {
			a.latencies = append(a.latencies, float64(i))
		} else {
			b.latencies = append(b.latencies, float64(i))
		}
	}
	a.coalesced = 3
	b.coalesced = 4

	rep := summarize([]clientResult{a, b}, 2, 2*time.Second)
	if rep.Requests != 101 || rep.Errors != 0 {
		t.Fatalf("requests %d errors %d, want 101 0", rep.Requests, rep.Errors)
	}
	if rep.Coalesced != 7 {
		t.Fatalf("coalesced %d, want 7", rep.Coalesced)
	}
	if !almost(rep.QPS, 101.0/2) {
		t.Fatalf("QPS %v, want 50.5", rep.QPS)
	}
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"p50", rep.P50MS, 50},
		{"p90", rep.P90MS, 90},
		{"p99", rep.P99MS, 99},
		{"max", rep.MaxMS, 100},
	} {
		if !almost(tc.got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

// TestSummarizeCountsErrorsByStatus: non-200 and transport failures
// count as errors, and QPS counts only successes.
func TestSummarizeCountsErrorsByStatus(t *testing.T) {
	var a clientResult
	a.statuses = map[int]int{
		http.StatusOK:              4,
		http.StatusTooManyRequests: 2,
		http.StatusGatewayTimeout:  1,
		0:                          3, // transport failures
	}
	a.latencies = []float64{1, 2, 3, 4}
	rep := summarize([]clientResult{a}, 1, time.Second)
	if rep.Requests != 10 {
		t.Fatalf("requests %d, want 10", rep.Requests)
	}
	if rep.Errors != 6 {
		t.Fatalf("errors %d, want 6 (non-200 + transport)", rep.Errors)
	}
	if rep.StatusCounts[http.StatusTooManyRequests] != 2 || rep.StatusCounts[0] != 3 {
		t.Fatalf("status counts wrong: %v", rep.StatusCounts)
	}
	if !almost(rep.QPS, 4) {
		t.Fatalf("QPS %v, want 4", rep.QPS)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	rep := summarize(make([]clientResult, 3), 3, time.Second)
	if rep.Requests != 0 || rep.QPS != 0 || rep.P99MS != 0 || rep.MaxMS != 0 {
		t.Fatalf("empty run should report zeros, got %+v", rep)
	}
}

func TestRunLoadValidation(t *testing.T) {
	if _, err := RunLoad(context.Background(), LoadConfig{}); err == nil {
		t.Fatal("missing BaseURL should error")
	}
	if _, err := RunLoad(context.Background(), LoadConfig{BaseURL: "http://x", Clients: -1}); err == nil {
		t.Fatal("negative clients should error")
	}
}

// peakServer is a fake midasd that holds each request briefly and
// records how many it got and the most it held at once.
func peakServer(t *testing.T) (url string, posts, peak *atomic.Int64) {
	t.Helper()
	posts, peak = new(atomic.Int64), new(atomic.Int64)
	var inFlight atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		n := inFlight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(5 * time.Millisecond)
		inFlight.Add(-1) // before the answer, so the next request cannot overlap this one
		_ = json.NewEncoder(w).Encode(server.QueryResponse{Query: "Q12"})
	}))
	t.Cleanup(ts.Close)
	return ts.URL, posts, peak
}

// TestRunLoadBoundsInFlight: the one loop never holds more requests in
// flight than it has slots — Clients closed loop, MaxInFlight open loop.
func TestRunLoadBoundsInFlight(t *testing.T) {
	url, posts, peak := peakServer(t)
	rep, err := RunLoad(context.Background(), LoadConfig{BaseURL: url, Clients: 3, Requests: 20})
	if err != nil {
		t.Fatal(err)
	}
	if posts.Load() != 60 || peak.Load() != 3 || rep.Requests != 60 || rep.Skipped != 0 {
		t.Fatalf("closed loop: %d POSTs, peak %d, %d requests, %d skipped; want 60, 3, 60, 0",
			posts.Load(), peak.Load(), rep.Requests, rep.Skipped)
	}

	url, posts, peak = peakServer(t)
	rep, err = RunLoad(context.Background(), LoadConfig{BaseURL: url, MaxInFlight: 2, Events: make([]scenario.Event, 30)})
	if err != nil {
		t.Fatal(err)
	}
	if posts.Load() != 30 || peak.Load() > 2 || rep.Requests != 30 || rep.Skipped != 0 {
		t.Fatalf("open loop: %d POSTs, peak %d, %d requests, %d skipped; want 30, ≤ 2, 30, 0",
			posts.Load(), peak.Load(), rep.Requests, rep.Skipped)
	}
}

// TestRunLoadUndecodable200IsNotRetried: the server records a round
// before it answers 200, so a 200 whose body does not decode is one
// acked request, never re-sent. The caller's Addrs stay as they were.
func TestRunLoadUndecodable200IsNotRetried(t *testing.T) {
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		posts.Add(1)
		_, _ = io.WriteString(w, `{"query":"Q1`)
	}))
	defer ts.Close()

	addrs := []string{ts.URL + "/"}
	rep, err := RunLoad(context.Background(), LoadConfig{Addrs: addrs, Clients: 2, Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	if posts.Load() != 6 || rep.StatusCounts[http.StatusOK] != 6 || rep.Errors != 0 {
		t.Fatalf("%d POSTs, statuses %v, %d errors; want 6 POSTs, 6 × 200, 0 errors",
			posts.Load(), rep.StatusCounts, rep.Errors)
	}
	if addrs[0] != ts.URL+"/" {
		t.Fatalf("RunLoad rewrote the caller's Addrs: %q", addrs[0])
	}
}

// fakeCluster is two fake midasd nodes: node 0 owns federation "fed"
// and stamps its responses; node 1 answers with a 307 at node 0. Both
// serve /v1/cluster.
func fakeCluster(t *testing.T) (urls [2]string, close0 func()) {
	t.Helper()
	var ts [2]*httptest.Server
	handler := func(i int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/cluster":
				_ = json.NewEncoder(w).Encode(server.ClusterResponse{
					Node:  nodeID(i),
					Epoch: 1,
					Members: []cluster.Member{
						{ID: "n0", Addr: ts[0].URL},
						{ID: "n1", Addr: ts[1].URL},
					},
					Placements: map[string]server.ClusterPlacement{
						"fed": {Owner: "n0", Standby: "n1", State: "active"},
					},
				})
			case "/v1/queries":
				if i != 0 {
					w.Header().Set("Location", ts[0].URL+"/v1/queries")
					w.WriteHeader(http.StatusTemporaryRedirect)
					return
				}
				_ = json.NewEncoder(w).Encode(server.QueryResponse{
					Query: "Q12", Node: "n0", Epoch: 1,
				})
			default:
				http.NotFound(w, r)
			}
		}
	}
	ts[0] = httptest.NewServer(handler(0))
	ts[1] = httptest.NewServer(handler(1))
	t.Cleanup(ts[1].Close)
	return [2]string{ts[0].URL, ts[1].URL}, ts[0].Close
}

func nodeID(i int) string { return fmt.Sprintf("n%d", i) }

// TestRunLoadClusterRouting: with the full seed list the generator
// learns the owner up front and every request lands on n0 directly.
func TestRunLoadClusterRouting(t *testing.T) {
	urls, close0 := fakeCluster(t)
	defer close0()

	rep, err := RunLoad(context.Background(), LoadConfig{
		Addrs:      []string{urls[1], urls[0]}, // non-owner listed first
		Federation: "fed",
		Clients:    4,
		Requests:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Exhausted != 0 {
		t.Fatalf("errors=%d exhausted=%d: %v", rep.Errors, rep.Exhausted, rep.StatusCounts)
	}
	if rep.Requests != 20 {
		t.Fatalf("requests = %d", rep.Requests)
	}
	if ns := rep.PerNode["n0"]; ns.Requests != 20 || ns.QPS <= 0 {
		t.Fatalf("per-node stats: %+v", rep.PerNode)
	}
	// The table was fetched up front, so nothing needed a redirect.
	if rep.Redirects != 0 {
		t.Fatalf("redirects = %d, want 0 (owner learned from /v1/cluster)", rep.Redirects)
	}
}

// TestRunLoadFollowsRedirects: pointed only at the non-owner, every
// client's first shot bounces once and then sticks to the owner.
func TestRunLoadFollowsRedirects(t *testing.T) {
	urls, close0 := fakeCluster(t)
	defer close0()

	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:  urls[1],
		Clients:  2,
		Requests: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Requests != 8 {
		t.Fatalf("errors=%d requests=%d", rep.Errors, rep.Requests)
	}
	if rep.Redirects == 0 {
		t.Fatal("no redirects followed")
	}
	if ns := rep.PerNode["n0"]; ns.Requests != 8 {
		t.Fatalf("per-node stats: %+v", rep.PerNode)
	}
}

// TestRunLoadFailsOverDeadNode: the cached owner dies mid-run; the
// budgeted retry path re-learns the table from the surviving seed.
// Here the survivor still 307s at the dead node, so requests exhaust
// their budget — the report must say so.
func TestRunLoadReportsExhaustion(t *testing.T) {
	urls, close0 := fakeCluster(t)
	close0() // owner is dead from the start

	rep, err := RunLoad(context.Background(), LoadConfig{
		Addrs:          []string{urls[1]},
		Federation:     "fed",
		Clients:        2,
		Requests:       1,
		RedirectBudget: 2,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exhausted != 2 {
		t.Fatalf("exhausted = %d, want 2 (owner dead, redirects loop): %v", rep.Exhausted, rep.StatusCounts)
	}
	if rep.Errors != 2 {
		t.Fatalf("errors = %d, want 2", rep.Errors)
	}
}
