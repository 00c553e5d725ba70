package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/tpch"
)

// scrape fetches and parses GET /metrics.
func scrape(t *testing.T, url string) *Scrape {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := metrics.ParseText(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, raw)
	}
	return sc
}

// Scrape aliases the parser's result for test readability.
type Scrape = metrics.Scrape

func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t, &stubSched{}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, body := postQuery(t, ts.URL, QueryRequest{Query: "Q12", Weights: []float64{1, 1}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit = %d, body %s", resp.StatusCode, body)
		}
	}
	sc := scrape(t, ts.URL)

	// The serving counters mirror /v1/stats.
	if got := sc.Values[`midas_requests_received_total{federation="test"}`]; got != 3 {
		t.Errorf("received = %v, want 3", got)
	}
	if got := sc.Values[`midas_requests_completed_total{federation="test"}`]; got != 3 {
		t.Errorf("completed = %v, want 3", got)
	}
	// The per-query latency histogram exists and is coherent.
	if got := sc.Values[`midas_request_duration_seconds_count{federation="test",query="Q12"}`]; got != 3 {
		t.Errorf("latency count = %v, want 3", got)
	}
	if sc.Types["midas_request_duration_seconds"] != metrics.KindHistogram {
		t.Errorf("latency TYPE = %v, want histogram", sc.Types["midas_request_duration_seconds"])
	}
	// Cumulative buckets are monotone and end at _count.
	var prev float64
	var bucketCount int
	for _, id := range sc.Order {
		if !strings.HasPrefix(id, `midas_request_duration_seconds_bucket{federation="test",query="Q12"`) {
			continue
		}
		v := sc.Values[id]
		if v < prev {
			t.Errorf("bucket %s = %v below previous %v", id, v, prev)
		}
		prev = v
		bucketCount++
	}
	if bucketCount == 0 {
		t.Fatalf("no latency buckets rendered")
	}
	if prev != sc.Values[`midas_request_duration_seconds_count{federation="test",query="Q12"}`] {
		t.Errorf("+Inf bucket %v != count", prev)
	}
	// Admission gauges render, labeled per federation (the queue is
	// sharded per tenant).
	if got := sc.Values[`midas_admission_queue_capacity{federation="test"}`]; got != 1024 {
		t.Errorf("queue capacity = %v, want default 1024", got)
	}
	if _, ok := sc.Values[`midas_admission_queue_depth{federation="test"}`]; !ok {
		t.Errorf("per-federation queue depth gauge missing")
	}
}

// TestMetricsCountersMonotoneUnderLoad hammers the server from many
// goroutines while scraping concurrently: every scrape must parse, and
// counters across consecutive scrapes must never decrease.
func TestMetricsCountersMonotoneUnderLoad(t *testing.T) {
	srv := newTestServer(t, &stubSched{}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const writers, perWriter, scrapes = 8, 25, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, _, err := tryPostQuery(ts.URL, QueryRequest{Query: "Q12", Weights: []float64{1, 1}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	counters := []string{
		`midas_requests_received_total{federation="test"}`,
		`midas_requests_completed_total{federation="test"}`,
		`midas_request_duration_seconds_count{federation="test",query="Q12"}`,
		`midas_sweeps_started_total{federation="test"}`,
	}
	prev := make(map[string]float64)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < scrapes; i++ {
			sc := scrape(t, ts.URL)
			for _, c := range counters {
				if v := sc.Values[c]; v < prev[c] {
					t.Errorf("scrape %d: %s went backwards: %v -> %v", i, c, prev[c], v)
				} else {
					prev[c] = v
				}
			}
		}
		close(done)
	}()
	wg.Wait()
	<-done

	// Settled state: every submission is accounted for exactly once.
	sc := scrape(t, ts.URL)
	want := float64(writers * perWriter)
	if got := sc.Values[`midas_requests_received_total{federation="test"}`]; got != want {
		t.Errorf("received = %v, want %v", got, want)
	}
	if got := sc.Values[`midas_requests_completed_total{federation="test"}`]; got != want {
		t.Errorf("completed = %v, want %v", got, want)
	}
	if got := sc.Values[`midas_request_duration_seconds_count{federation="test",query="Q12"}`]; got != want {
		t.Errorf("latency observations = %v, want %v", got, want)
	}
	// Coalesced + sweeps cover every completion (a request either led a
	// sweep or joined one).
	coalesced := sc.Values[`midas_requests_coalesced_total{federation="test"}`]
	if coalesced < 0 || coalesced > want {
		t.Errorf("coalesced = %v outside [0, %v]", coalesced, want)
	}
}

// TestMetricsMirrorsStats: the JSON stats endpoint and the Prometheus
// endpoint read the same atomics, so their counts must agree when the
// server is quiescent.
func TestMetricsMirrorsStats(t *testing.T) {
	srv := newTestServer(t, &stubSched{}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 5; i++ {
		postQuery(t, ts.URL, QueryRequest{Query: "Q13", Weights: []float64{1, 1}})
	}
	sc := scrape(t, ts.URL)
	stats := getStats(t, ts.URL).Federations["test"]
	if got := sc.Values[`midas_requests_completed_total{federation="test"}`]; got != float64(stats.Completed) {
		t.Errorf("metrics completed %v != stats %d", got, stats.Completed)
	}
	if got := sc.Values[`midas_sweeps_started_total{federation="test"}`]; got != float64(stats.Sweeps) {
		t.Errorf("metrics sweeps %v != stats %d", got, stats.Sweeps)
	}
}

// getStats fetches GET /v1/stats.
func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStatsPercentilesMatchScrape: /v1/stats has no latency store of
// its own — its percentiles are the request-duration histogram's, so
// they equal histogram_quantile recomputed (here: independently, from
// the text exposition) over a scrape of the same quiescent server, with
// the federation's queries summed.
func TestStatsPercentilesMatchScrape(t *testing.T) {
	srv := newTestServer(t, &stubSched{}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if st := getStats(t, ts.URL).Federations["test"]; st.P50MS != 0 || st.P90MS != 0 || st.P99MS != 0 {
		t.Fatalf("percentiles before any request = %v/%v/%v, want zeros", st.P50MS, st.P90MS, st.P99MS)
	}
	// Real round trips on two queries (µs-scale against a stub: the
	// buckets below 1 ms are what resolves them), plus synthetic
	// observations across the ladder and into +Inf so every
	// interpolation case runs whatever this machine's speed.
	for i := 0; i < 20; i++ {
		for _, q := range []string{"Q12", "Q13"} {
			if resp, body := postQuery(t, ts.URL, QueryRequest{Query: q, Weights: []float64{1, 1}}); resp.StatusCode != http.StatusOK {
				t.Fatalf("submit = %d, body %s", resp.StatusCode, body)
			}
		}
	}
	for i, secs := range []float64{3e-5, 8e-5, 4e-4, 0.003, 0.04, 0.04, 0.7, 2, 45} {
		srv.tenants["test"].latency[tpch.AllQueries[i%2]].Observe(secs)
	}

	// Sum the cumulative bucket series over the federation's queries.
	sc := scrape(t, ts.URL)
	cum := map[float64]float64{}
	for id, v := range sc.Values {
		name, labels, _ := strings.Cut(id, "{")
		if name != "midas_request_duration_seconds_bucket" || !strings.Contains(labels, `federation="test"`) {
			continue
		}
		_, le, _ := strings.Cut(strings.TrimSuffix(labels, `"}`), `le="`)
		bound, err := strconv.ParseFloat(le, 64) // "+Inf" parses
		if err != nil {
			t.Fatalf("series %s: %v", id, err)
		}
		cum[bound] += v
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if bounds[0] > 1e-5 || bounds[len(bounds)-2] < 30 || len(bounds) > 25 {
		t.Fatalf("request buckets %v do not span 10 µs..30 s in at most 24 bounds", bounds)
	}
	quantile := func(q float64) float64 {
		rank := q * cum[math.Inf(1)]
		for i, b := range bounds {
			if cum[b] < rank {
				continue
			}
			if math.IsInf(b, 1) {
				return bounds[i-1]
			}
			lower, below := 0.0, 0.0
			if i > 0 {
				lower, below = bounds[i-1], cum[bounds[i-1]]
			}
			return lower + (b-lower)*(rank-below)/(cum[b]-below)
		}
		return math.NaN()
	}
	st := getStats(t, ts.URL).Federations["test"]
	for _, c := range []struct {
		name string
		got  float64
		q    float64
	}{{"p50", st.P50MS, 0.50}, {"p90", st.P90MS, 0.90}, {"p99", st.P99MS, 0.99}} {
		if want := quantile(c.q) * 1e3; math.Abs(c.got-want) > 1e-9*want {
			t.Errorf("/v1/stats %s = %v ms, scrape says %v ms", c.name, c.got, want)
		}
	}
	if st.P99MS != 30e3 {
		t.Errorf("p99 = %v ms, want the highest finite bound (the 45 s outlier sits in +Inf)", st.P99MS)
	}
}
