package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/moo"
	"repro/internal/tpch"
)

// stubSched is a QueryScheduler with controllable latency and failure,
// so batching and timeout semantics can be tested deterministically.
type stubSched struct {
	mu         sync.Mutex
	sweepCalls int
	// block, when non-nil, holds every sweep until the channel closes
	// (or the sweep context expires).
	block chan struct{}
	// started is closed when the first sweep begins.
	started   chan struct{}
	failSweep error
	// failOpen, while set, fails every OpenHistory: an activation fails
	// the way it does on a corrupt shard. openCalls counts OpenHistory.
	failOpen  error
	openCalls int
	hist      *core.History
}

// OpenHistory opens nothing; it fails while failOpen is set.
func (s *stubSched) OpenHistory(tpch.QueryID) (*core.History, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.openCalls++
	return nil, s.failOpen
}

// opened reports how many times OpenHistory ran.
func (s *stubSched) opened() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.openCalls
}

// setFailOpen sets failOpen (nil: activations succeed again).
func (s *stubSched) setFailOpen(err error) {
	s.mu.Lock()
	s.failOpen = err
	s.mu.Unlock()
}

func (s *stubSched) PlanSweep(ctx context.Context, q tpch.QueryID) (*ires.Sweep, error) {
	s.mu.Lock()
	s.sweepCalls++
	first := s.sweepCalls == 1
	block := s.block
	s.mu.Unlock()
	if first && s.started != nil {
		close(s.started)
	}
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if s.failSweep != nil {
		return nil, s.failSweep
	}
	costs, err := moo.NewCostMatrix([][]float64{{1, 2}})
	if err != nil {
		return nil, err
	}
	return &ires.Sweep{
		Query:      q,
		Costs:      costs,
		FrontIdx:   []int{0},
		FrontCosts: costs,
		Normalized: moo.NormalizeCosts(nil, costs),
	}, nil
}

func (s *stubSched) DecideFromSweep(sw *ires.Sweep, pol ires.Policy) (*ires.Decision, error) {
	idx, err := sw.Select(pol)
	if err != nil {
		return nil, err
	}
	return &ires.Decision{
		Plan:       federation.Plan{Query: sw.Query, JoinAtLeft: true, NodesLeft: 1, NodesRight: 1},
		Estimated:  sw.Costs.Row(idx),
		Outcome:    &federation.Outcome{TimeS: 1, MoneyUSD: 2},
		ParetoSize: len(sw.FrontIdx),
		PlanSpace:  sw.Costs.Len(),
	}, nil
}

func (s *stubSched) History(q tpch.QueryID) *core.History {
	if s.hist == nil {
		h, err := core.NewHistory(federation.FeatureDim, federation.Metrics...)
		if err != nil {
			panic(err)
		}
		s.hist = h
	}
	return s.hist
}

func (s *stubSched) Checkpoint() error { return nil }

func (s *stubSched) calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweepCalls
}

// newTestServer wires one stub tenant named "test".
func newTestServer(t *testing.T, stub *stubSched, cfg Config) *Server {
	t.Helper()
	srv, err := NewWithSchedulers(cfg, map[string]QueryScheduler{"test": stub}, tpch.AllQueries)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// tryPostQuery submits a query without failing the test — safe from
// any goroutine.
func tryPostQuery(url string, req QueryRequest) (*http.Response, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(url+"/v1/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, nil, err
	}
	return resp, buf.Bytes(), nil
}

func postQuery(t *testing.T, url string, req QueryRequest) (*http.Response, []byte) {
	t.Helper()
	resp, body, err := tryPostQuery(url, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestSubmitRoundTrip(t *testing.T) {
	srv := newTestServer(t, &stubSched{}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts.URL, QueryRequest{Query: "Q12", Weights: []float64{1, 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Query != "Q12" || qr.Federation != "test" {
		t.Fatalf("unexpected response %+v", qr)
	}
	if qr.MeasuredTimeS != 1 || qr.MeasuredUSD != 2 {
		t.Fatalf("measured costs = %v/%v", qr.MeasuredTimeS, qr.MeasuredUSD)
	}
	if qr.PlanSpace != 1 || qr.ParetoSize != 1 {
		t.Fatalf("plan space %d pareto %d", qr.PlanSpace, qr.ParetoSize)
	}
}

// TestSubmitBodyLimit: a body longer than maxBodyBytes is refused
// however its reads split — here the last one returns the final bytes
// together with io.EOF, as net/http's body reader often does — and one
// of exactly maxBodyBytes is served.
func TestSubmitBodyLimit(t *testing.T) {
	srv := newTestServer(t, &stubSched{}, Config{})
	valid := []byte(`{"query": "Q12", "weights": [1, 1]}`)
	for _, tc := range []struct{ size, want int }{
		{maxBodyBytes, http.StatusOK},
		{maxBodyBytes + 1, http.StatusBadRequest},
	} {
		body := append(slices.Clone(valid), bytes.Repeat([]byte(" "), tc.size-len(valid))...)
		req := httptest.NewRequest(http.MethodPost, "/v1/queries", iotest.DataErrReader(bytes.NewReader(body)))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%d-byte body: status %d, want %d: %.200s", tc.size, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// closeRecorder is a request body that records whether it was closed
// after being read to its end.
type closeRecorder struct {
	io.Reader
	eof, closedAtEOF bool
}

func (b *closeRecorder) Read(p []byte) (int, error) {
	n, err := b.Reader.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

func (b *closeRecorder) Close() error {
	b.closedAtEOF = b.eof
	return nil
}

// TestSubmitClosesRequestBody: a submission closes its body once it has
// read it to the end, so net/http drains nothing after the handler.
func TestSubmitClosesRequestBody(t *testing.T) {
	srv := newTestServer(t, &stubSched{}, Config{})
	body := &closeRecorder{Reader: strings.NewReader(`{"query": "Q12", "weights": [1, 1]}`)}
	req := httptest.NewRequest(http.MethodPost, "/v1/queries", body)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !body.closedAtEOF {
		t.Error("the handler did not close the body it had read to its end")
	}
}

func TestSubmitValidation(t *testing.T) {
	stub := &stubSched{}
	srv := newTestServer(t, stub, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  QueryRequest
		want int
	}{
		{"unknown query", QueryRequest{Query: "Q99"}, http.StatusBadRequest},
		{"empty query", QueryRequest{}, http.StatusBadRequest},
		{"unknown federation", QueryRequest{Query: "Q12", Federation: "nope"}, http.StatusNotFound},
		{"unknown strategy", QueryRequest{Query: "Q12", Strategy: "psychic"}, http.StatusBadRequest},
		{"one weight for two metrics", QueryRequest{Query: "Q12", Weights: []float64{1}}, http.StatusBadRequest},
		{"three weights for two metrics", QueryRequest{Query: "Q12", Weights: []float64{1, 1, 1}}, http.StatusBadRequest},
		{"negative weight", QueryRequest{Query: "Q12", Weights: []float64{-1, 1}}, http.StatusBadRequest},
		{"zero weights", QueryRequest{Query: "Q12", Weights: []float64{0, 0}}, http.StatusBadRequest},
		{"three constraints for two metrics", QueryRequest{Query: "Q12", Constraints: []float64{1, 1, 1}}, http.StatusBadRequest},
		{"lex order out of range", QueryRequest{Query: "Q12", Strategy: "lex", LexOrder: []int{5}}, http.StatusBadRequest},
		{"lex order repeated", QueryRequest{Query: "Q12", Strategy: "lex", LexOrder: []int{0, 0}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postQuery(t, ts.URL, tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d (want %d), body %s", tc.name, resp.StatusCode, tc.want, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: expected error body, got %s", tc.name, body)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/queries", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status = %d", resp.StatusCode)
	}
	// A refused request never reaches a sweep and is not a server failure.
	if stub.sweepCalls != 0 {
		t.Errorf("refused requests ran %d sweeps, want 0", stub.sweepCalls)
	}
	if got := srv.tenants["test"].stats.failed.Load(); got != 0 {
		t.Errorf("failed counter = %d, want 0", got)
	}
}

func TestSubmitSchedulerError(t *testing.T) {
	stub := &stubSched{failSweep: errors.New("boom")}
	srv := newTestServer(t, stub, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts.URL, QueryRequest{Query: "Q12"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := srv.tenants["test"].stats.failed.Load(); got != 1 {
		t.Fatalf("failed counter = %d", got)
	}
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t, &stubSched{}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

func TestHistoryEndpoint(t *testing.T) {
	stub := &stubSched{}
	h := stub.History(tpch.QueryQ13)
	for i := 0; i < 5; i++ {
		if err := h.Append(core.Observation{
			X:     []float64{float64(i), 1, 1, 1, 0},
			Costs: []float64{float64(i) * 10, float64(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv := newTestServer(t, stub, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/history/Q13?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("history = %d", resp.StatusCode)
	}
	var hr HistoryResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Len != 5 || len(hr.Observations) != 2 {
		t.Fatalf("len = %d, observations = %d", hr.Len, len(hr.Observations))
	}
	// Most recent first.
	if hr.Observations[0].X[0] != 4 || hr.Observations[1].X[0] != 3 {
		t.Fatalf("unexpected order: %+v", hr.Observations)
	}

	for _, bad := range []string{"/v1/history/Q99", "/v1/history/Q12?limit=x"} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d", bad, resp.StatusCode)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := newTestServer(t, &stubSched{}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, body := postQuery(t, ts.URL, QueryRequest{Query: "Q12"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	fs, ok := sr.Federations["test"]
	if !ok {
		t.Fatalf("no stats for tenant: %+v", sr)
	}
	if fs.Received != 3 || fs.Completed != 3 {
		t.Fatalf("received/completed = %d/%d", fs.Received, fs.Completed)
	}
	if fs.P50MS <= 0 {
		t.Fatalf("p50 = %v", fs.P50MS)
	}
}

func TestMultiTenantRouting(t *testing.T) {
	a, b := &stubSched{}, &stubSched{}
	srv, err := NewWithSchedulers(Config{}, map[string]QueryScheduler{"a": a, "b": b}, tpch.AllQueries)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Ambiguous: several tenants, no federation named.
	resp, _ := postQuery(t, ts.URL, QueryRequest{Query: "Q12"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ambiguous tenant: status = %d", resp.StatusCode)
	}
	resp, body := postQuery(t, ts.URL, QueryRequest{Query: "Q12", Federation: "b"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant b: %d %s", resp.StatusCode, body)
	}
	if a.calls() != 0 || b.calls() != 1 {
		t.Fatalf("sweep calls a=%d b=%d", a.calls(), b.calls())
	}
}

// TestServeIntegration exercises the full stack — real scheduler, real
// scaled executor — through the HTTP API once.
func TestServeIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack serve test")
	}
	srv, err := New(Config{Federations: []FederationSpec{{
		Name:        "paper",
		SF:          0.05,
		NodeChoices: []int{1, 2},
		Bootstrap:   12,
		Queries:     []string{"Q12"},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts.URL, QueryRequest{Query: "Q12", Weights: []float64{1, 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.MeasuredTimeS <= 0 || qr.PlanSpace < 2 {
		t.Fatalf("implausible decision: %+v", qr)
	}
	if qr.PlansEstimated != qr.PlanSpace {
		t.Fatalf("sweep bookkeeping: estimated=%d space=%d", qr.PlansEstimated, qr.PlanSpace)
	}
	// A second submission must land in history: bootstrap(12) + 1.
	hresp, err := http.Get(ts.URL + "/v1/history/Q12?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hr HistoryResponse
	if err := json.NewDecoder(hresp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Len != 13 {
		t.Fatalf("history len = %d, want 13", hr.Len)
	}
	// Serving a query outside the tenant's menu is a client error.
	resp, _ = postQuery(t, ts.URL, QueryRequest{Query: "Q13"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unserved query: status = %d", resp.StatusCode)
	}
}

// waitFor polls cond until it holds, failing the test after d with what
// why describes then (nil: a generic message).
func waitFor(t testing.TB, d time.Duration, cond func() bool, why func() string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	if why == nil {
		t.Fatal("condition not reached in time")
	}
	t.Fatal(why())
}
