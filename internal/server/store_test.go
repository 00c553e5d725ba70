package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/ires"
	"repro/internal/tpch"
)

func TestHistoryPagingAndTruncationStats(t *testing.T) {
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

	getPage := func(query string) HistoryResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", query, resp.StatusCode)
		}
		var hr HistoryResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return hr
	}

	// No params: everything fits under the default cap.
	hr := getPage("/v1/history/Q13")
	if hr.Len != 5 || len(hr.Observations) != 5 || hr.Truncated || hr.Offset != 0 {
		t.Fatalf("default page: %+v", hr)
	}
	// offset walks back in time; the cut page is flagged as truncated.
	hr = getPage("/v1/history/Q13?offset=2&limit=2")
	if len(hr.Observations) != 2 || hr.Offset != 2 || !hr.Truncated {
		t.Fatalf("offset page: %+v", hr)
	}
	if hr.Observations[0].X[0] != 2 || hr.Observations[1].X[0] != 1 {
		t.Fatalf("offset page order: %+v", hr.Observations)
	}
	// limit=0 is the cheap length probe.
	hr = getPage("/v1/history/Q13?limit=0")
	if hr.Len != 5 || len(hr.Observations) != 0 || !hr.Truncated {
		t.Fatalf("length probe: %+v", hr)
	}
	// Past-the-end offset is an empty page, not an error.
	hr = getPage("/v1/history/Q13?offset=99")
	if len(hr.Observations) != 0 || hr.Truncated {
		t.Fatalf("past-the-end page: %+v", hr)
	}

	if got := srv.tenants["test"].stats.histTruncated.Load(); got != 2 {
		t.Fatalf("history_truncated = %d, want 2", got)
	}

	// A bounded history: len keeps counting every observation recorded,
	// base says where what is held starts, and pages stop there.
	h.SetRetain(2) // holds observations 2..4
	hr = getPage("/v1/history/Q13?limit=1000000")
	if hr.Len != 5 || hr.Base != 2 || len(hr.Observations) != 3 || !hr.Truncated || hr.Observations[2].X[0] != 2 {
		t.Fatalf("whole bounded history: %+v", hr)
	}
	hr = getPage("/v1/history/Q13?offset=2&limit=2")
	if hr.Len != 5 || hr.Base != 2 || len(hr.Observations) != 1 || hr.Observations[0].X[0] != 2 || !hr.Truncated {
		t.Fatalf("page that reaches the base: %+v", hr)
	}
	hr = getPage("/v1/history/Q13?offset=3")
	if hr.Len != 5 || len(hr.Observations) != 0 || !hr.Truncated {
		t.Fatalf("page below the base: %+v", hr)
	}

	resp, err := http.Get(ts.URL + "/v1/history/Q13?offset=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative offset: status %d", resp.StatusCode)
	}
}

// TestHistoryRetainCoversEveryReader pins the bound against the two
// things that read back into a history: an estimate (ires.MMax newest
// observations) and a default page of GET /v1/history. Twice over, so
// the R the rule always keeps covers both with room.
func TestHistoryRetainCoversEveryReader(t *testing.T) {
	if historyRetain < 2*ires.MMax || historyRetain < 2*defaultHistoryLimit {
		t.Fatalf("historyRetain = %d, want ≥ 2·%d (MMax) and ≥ 2·%d (default page)", historyRetain, ires.MMax, defaultHistoryLimit)
	}
}

// TestServeBoundedHistoryAcrossRestart: a tenant whose history has
// passed the bound twice over keeps counting every observation, holds
// and serves the newest ones, keeps at most three WAL segments, and
// comes back from a restart with the same history and the same next
// decision as a tenant that was never restarted.
func TestServeBoundedHistoryAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	const bootstrap = 2*historyRetain + 40
	spec := FederationSpec{Name: "paper", SF: 0.05, NodeChoices: []int{1, 2}, Bootstrap: bootstrap, Queries: []string{"Q12"}}
	dir := t.TempDir()
	durable := Config{Federations: []FederationSpec{spec}, Store: StoreConfig{Dir: dir}}
	history := func(ts *httptest.Server, query string) HistoryResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/history/Q12" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr HistoryResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return hr
	}
	submit := func(ts *httptest.Server) QueryResponse {
		t.Helper()
		resp, body := postQuery(t, ts.URL, QueryRequest{Query: "Q12", Weights: []float64{1, 1}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		return qr
	}
	wantHistory := func(ts *httptest.Server, n int) HistoryResponse {
		t.Helper()
		hr := history(ts, "?limit=1000000")
		if hr.Len != n || hr.Base != historyRetain || len(hr.Observations) != n-historyRetain || !hr.Truncated {
			t.Fatalf("history: len %d base %d, %d observations, truncated %v; want len %d base %d",
				hr.Len, hr.Base, len(hr.Observations), hr.Truncated, n, historyRetain)
		}
		segments, err := filepath.Glob(filepath.Join(dir, "paper", "Q12", "wal*.log"))
		if err != nil || len(segments) == 0 || len(segments) > 3 {
			t.Fatalf("shard holds segments %v (err %v), want 1..3", segments, err)
		}
		return hr
	}

	srv1, err := New(durable)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	submit(ts1)
	submit(ts1)
	before := wantHistory(ts1, bootstrap+2)
	ts1.Close() // the crash: no drain, no checkpoint

	// Control: in memory, same bound, same requests, never restarted.
	ctrl, err := New(Config{Federations: []FederationSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	tsC := httptest.NewServer(ctrl.Handler())
	defer tsC.Close()
	submit(tsC)
	submit(tsC)
	if hr := history(tsC, "?limit=0"); hr.Len != bootstrap+2 || hr.Base != historyRetain {
		t.Fatalf("in-memory control: len %d base %d", hr.Len, hr.Base)
	}
	want := submit(tsC)

	srv2, err := New(durable)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	after := wantHistory(ts2, bootstrap+2)
	for i := range before.Observations {
		if before.Observations[i].Costs[0] != after.Observations[i].Costs[0] || before.Observations[i].X[0] != after.Observations[i].X[0] {
			t.Fatalf("observation %d from the newest differs across the restart", i)
		}
	}
	if got := submit(ts2); got.Plan != want.Plan || got.EstimatedTimeS != want.EstimatedTimeS || got.EstimatedUSD != want.EstimatedUSD {
		t.Fatalf("post-restart decision %+v (%v s, %v $), control %+v (%v s, %v $)",
			got.Plan, got.EstimatedTimeS, got.EstimatedUSD, want.Plan, want.EstimatedTimeS, want.EstimatedUSD)
	}
}

// cpSched is a stub scheduler that counts its checkpoints.
type cpSched struct {
	stubSched
	cpCalls atomic.Int64
	cpErr   error
}

func (s *cpSched) Checkpoint() error {
	s.cpCalls.Add(1)
	return s.cpErr
}

func TestAdminCheckpointEndpoint(t *testing.T) {
	stub := &cpSched{}
	srv, err := NewWithSchedulers(Config{}, map[string]QueryScheduler{"test": stub}, tpch.AllQueries)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/admin/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr CheckpointResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cr.Federations["test"] != "ok" {
		t.Fatalf("checkpoint: status %d, body %+v", resp.StatusCode, cr)
	}
	if stub.cpCalls.Load() != 1 {
		t.Fatalf("scheduler checkpoints = %d, want 1", stub.cpCalls.Load())
	}
	if got := srv.tenants["test"].stats.checkpoints.Load(); got != 1 {
		t.Fatalf("checkpoint counter = %d, want 1", got)
	}

	resp, err = http.Post(ts.URL+"/v1/admin/checkpoint?federation=nope", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown federation: status %d", resp.StatusCode)
	}

	stub.cpErr = errors.New("disk on fire")
	resp, err = http.Post(ts.URL+"/v1/admin/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || cr.Federations["test"] != "disk on fire" {
		t.Fatalf("failing checkpoint: status %d, body %+v", resp.StatusCode, cr)
	}
	if got := srv.tenants["test"].stats.checkpointErr.Load(); got != 1 {
		t.Fatalf("checkpoint_failures = %d, want 1", got)
	}
}

// TestDrainChecksPointsTenants: a clean drain runs the final checkpoint
// on every tenant.
func TestDrainCheckpointsTenants(t *testing.T) {
	stub := &cpSched{}
	srv, err := NewWithSchedulers(Config{}, map[string]QueryScheduler{"test": stub}, tpch.AllQueries)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if stub.cpCalls.Load() != 1 {
		t.Fatalf("drain ran %d checkpoints, want 1", stub.cpCalls.Load())
	}
}

// TestServeRestartRecoversHistory is the kill-and-restart acceptance
// test over the full stack: a durable server is killed without any
// drain or checkpoint (WAL-only state), restarted, and must serve its
// first post-restart decision from a history — and therefore a DREAM
// window fit — identical to a never-restarted control run fed the same
// appends. A second restart after a clean drain recovers from the same
// one file.
func TestServeRestartRecoversHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	spec := FederationSpec{
		Name:        "paper",
		SF:          0.05,
		NodeChoices: []int{1, 2},
		Bootstrap:   12,
		Queries:     []string{"Q12"},
	}
	dir := t.TempDir()
	durable := Config{Federations: []FederationSpec{spec}, Store: StoreConfig{Dir: dir}}

	histLen := func(ts *httptest.Server) int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/history/Q12?limit=0")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr HistoryResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return hr.Len
	}
	submit := func(ts *httptest.Server) QueryResponse {
		t.Helper()
		resp, body := postQuery(t, ts.URL, QueryRequest{Query: "Q12", Weights: []float64{1, 1}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		return qr
	}

	// Victim: durable, two decisions, then "killed" — no drain, no
	// checkpoint, the WAL is all that survives.
	srv1, err := New(durable)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	submit(ts1)
	submit(ts1)
	if got := histLen(ts1); got != 14 {
		t.Fatalf("victim history = %d, want 14", got)
	}
	ts1.Close() // the crash

	// Control: identical spec and request sequence, never restarted.
	ctrl, err := New(Config{Federations: []FederationSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	tsC := httptest.NewServer(ctrl.Handler())
	defer tsC.Close()
	submit(tsC)
	submit(tsC)
	want := submit(tsC) // the control's third decision

	// Restart over the same data dir: recovery must replay all 14
	// observations (12 bootstrap + 2 decisions) and skip re-bootstrap.
	srv2, err := New(durable)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if got := histLen(ts2); got != 14 {
		t.Fatalf("recovered history = %d, want 14", got)
	}
	got := submit(ts2)
	// Estimation is a pure function of (history, plan space): the
	// recovered run must pick the same plan with the same estimated
	// costs as the never-restarted control. (Measured costs differ —
	// the simulated cloud's noise RNG is process-local.)
	if got.Plan != want.Plan {
		t.Fatalf("post-restart plan %+v, control chose %+v", got.Plan, want.Plan)
	}
	if got.EstimatedTimeS != want.EstimatedTimeS || got.EstimatedUSD != want.EstimatedUSD {
		t.Fatalf("post-restart estimates (%v, %v), control (%v, %v)",
			got.EstimatedTimeS, got.EstimatedUSD, want.EstimatedTimeS, want.EstimatedUSD)
	}
	if got.ParetoSize != want.ParetoSize || got.PlanSpace != want.PlanSpace {
		t.Fatalf("post-restart front %d/%d, control %d/%d",
			got.ParetoSize, got.PlanSpace, want.ParetoSize, want.PlanSpace)
	}

	// Clean drain → final checkpoint (an fsync) → the same WAL replay;
	// the drain wrote no second copy of the history.
	if err := srv2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "paper", "Q12", "snapshot.json")); err != nil || fi.Size() >= 1024 {
		t.Fatalf("snapshot.json after a drain: %v (err %v), want a header under 1 KiB", fi, err)
	}
	srv3, err := New(durable)
	if err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	if got := histLen(ts3); got != 15 {
		t.Fatalf("post-drain recovery = %d, want 15", got)
	}
	if err := srv3.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
