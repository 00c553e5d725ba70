package workload

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// roundTripTrace serializes a schedule to trace bytes and parses it
// back — the record/replay path without the filesystem.
func roundTripTrace(t *testing.T, events []scenario.Event) []scenario.Event {
	t.Helper()
	var buf bytes.Buffer
	if err := scenario.WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	replayed, err := scenario.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return replayed
}

// regroup distributes one flat sample list over n clientResult tallies
// in round-robin order — the shape a run with n in-flight slots would
// produce.
func regroup(samples []float64, statuses []int, n int) []clientResult {
	results := make([]clientResult, n)
	for i := range results {
		results[i].statuses = make(map[int]int)
		results[i].perNode = make(map[string][]float64)
	}
	for i := range samples {
		res := &results[i%n]
		res.tally(shotResult{status: statuses[i], node: "server"}, samples[i])
	}
	return results
}

// The property the load loop leans on: summarize is invariant to how
// samples are grouped into clientResults, so tallying by in-flight slot
// reports the same percentiles, counts and rates as any other grouping.
func TestSummarizeGroupingInvariant(t *testing.T) {
	rng := stats.NewRNG(99)
	const samples = 4097
	lats := make([]float64, samples)
	codes := make([]int, samples)
	for i := range lats {
		lats[i] = rng.LogNormal(1, 0.8)
		codes[i] = http.StatusOK
		if rng.Bernoulli(0.03) {
			codes[i] = http.StatusServiceUnavailable
		}
	}
	elapsed := 3 * time.Second
	base := summarize(regroup(lats, codes, 1), 1, elapsed)
	for _, n := range []int{2, 8, 97, 256, samples} {
		got := summarize(regroup(lats, codes, n), n, elapsed)
		got.Clients = base.Clients // the only field allowed to differ
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("summary changed when regrouping %d samples into %d tallies:\n got %+v\nwant %+v",
				samples, n, got, base)
		}
	}
}

// Closed-loop (8 slots) and open-loop (256 slots) groupings of the same
// latency samples must agree on every percentile: there is exactly one
// percentile implementation.
func TestClosedAndOpenLoopSummariesAgree(t *testing.T) {
	rng := stats.NewRNG(5)
	lats := make([]float64, 1000)
	codes := make([]int, 1000)
	for i := range lats {
		lats[i] = rng.Uniform(0.5, 90)
		codes[i] = http.StatusOK
	}
	elapsed := time.Second
	closed := summarize(regroup(lats, codes, 8), 8, elapsed)
	open := summarize(regroup(lats, codes, 256), 256, elapsed)
	for _, pair := range [][2]float64{
		{closed.P50MS, open.P50MS},
		{closed.P90MS, open.P90MS},
		{closed.P99MS, open.P99MS},
		{closed.MaxMS, open.MaxMS},
		{closed.QPS, open.QPS},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-12 {
			t.Fatalf("closed/open summaries disagree: closed %+v open %+v", closed, open)
		}
	}
	if closed.Requests != open.Requests || closed.Errors != open.Errors {
		t.Fatalf("counts disagree: closed %d/%d open %d/%d",
			closed.Requests, closed.Errors, open.Requests, open.Errors)
	}
}

func TestRunLoadFiresWholeSchedule(t *testing.T) {
	ts := fakeMidasd(t, nil)
	defer ts.Close()

	spec := scenario.Spec{Arrival: "bursty", Rate: 2000, Events: 120, Seed: 4}
	events, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL: ts.URL,
		Events:  events,
		Speed:   10, // compress the schedule; latencies don't change
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != len(events) || rep.Errors != 0 || rep.Skipped != 0 {
		t.Fatalf("requests/errors/skipped = %d/%d/%d, want %d/0/0",
			rep.Requests, rep.Errors, rep.Skipped, len(events))
	}
	if rep.QPS <= 0 || rep.P50MS <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if rep.Coalesced != len(events) {
		t.Fatalf("coalesced = %d, want %d (fake server always coalesces)", rep.Coalesced, len(events))
	}
}

// An open-loop run replayed from trace bytes must fire the same
// schedule the recording wrote.
func TestRunLoadReplaysTrace(t *testing.T) {
	ts := fakeMidasd(t, nil)
	defer ts.Close()

	events, err := scenario.Spec{Arrival: "poisson", Rate: 5000, Events: 40, Seed: 8}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	replayed := roundTripTrace(t, events)
	if !reflect.DeepEqual(events, replayed) {
		t.Fatal("trace round trip changed the schedule")
	}
	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL: ts.URL,
		Events:  replayed,
		Speed:   10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != len(events) || rep.Errors != 0 {
		t.Fatalf("replayed run: requests/errors = %d/%d, want %d/0", rep.Requests, rep.Errors, len(events))
	}
}

// TestRunLoadScheduleValidation: a schedule still needs a BaseURL, an
// empty schedule is a valid closed-loop run, and a non-positive Speed
// falls back to real time.
func TestRunLoadScheduleValidation(t *testing.T) {
	if _, err := RunLoad(context.Background(), LoadConfig{Events: []scenario.Event{{Query: "Q12"}}}); err == nil {
		t.Fatal("missing BaseURL should error with a schedule too")
	}
	cfg := LoadConfig{BaseURL: "http://localhost:1", Events: []scenario.Event{}, Speed: -2}
	if err := cfg.setDefaults(); err != nil {
		t.Fatalf("empty schedule should be a valid closed-loop config: %v", err)
	}
	if cfg.Speed != 1 {
		t.Fatalf("non-positive Speed defaulted to %v, want 1", cfg.Speed)
	}
}

func TestRunLoadCancelledContext(t *testing.T) {
	ts := fakeMidasd(t, nil)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	events, err := scenario.Spec{Arrival: "poisson", Rate: 100, Events: 30, Seed: 2}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLoad(ctx, LoadConfig{BaseURL: ts.URL, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 0 || rep.Skipped != len(events) {
		t.Fatalf("cancelled run: %d requests, %d skipped, want 0 and %d", rep.Requests, rep.Skipped, len(events))
	}
}
