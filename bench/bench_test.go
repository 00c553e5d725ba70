package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestCalmMedian(t *testing.T) {
	rounds := []round{
		{Values: map[string]float64{"sat_p50_ms": 1}, Steal: 0.40},
		{Values: map[string]float64{"sat_p50_ms": 5}, Steal: 0.01},
		{Values: map[string]float64{"sat_p50_ms": 4}, Steal: 0.02},
		{Values: map[string]float64{"sat_p50_ms": 9}, Steal: 0},
	}
	// The stolen round is left out, fast as it reads.
	if v, disturbed := calmMedian(rounds, "sat_p50_ms"); v != 5 || disturbed {
		t.Errorf("median = %v disturbed=%t, want 5 from the calm rounds", v, disturbed)
	}
	// Fewer than half the rounds calm: every round counts and the result
	// says so. Unknown steal (no /proc/stat) is not calm.
	rounds[1].Steal, rounds[2].Steal = 0.5, -1
	if v, disturbed := calmMedian(rounds, "sat_p50_ms"); v != 4.5 || !disturbed {
		t.Errorf("median = %v disturbed=%t, want 4.5 and disturbed", v, disturbed)
	}
}

func TestSpeedScaling(t *testing.T) {
	if got := slowdown(referenceUs, referenceUs); got != 1 {
		t.Errorf("slowdown at the reference speed = %v, want 1", got)
	}
	if got := slowdown(1.2*referenceUs, 1.4*referenceUs); math.Abs(got-1.3) > 1e-12 {
		t.Errorf("slowdown = %v, want the mean of the two readings, 1.3", got)
	}
	// A box running at half speed doubles every round trip and halves the
	// rate; scaled, the round reads as at the reference speed.
	l := &load{elapsed: time.Second}
	for i := 1; i <= 100; i++ {
		l.samples = append(l.samples, sample{rttNs: int64(i) * 2e6, ok: true})
	}
	rd := timedRound(l, 0, 2)
	for name, want := range map[string]float64{"throughput_rps": 200, "sat_p50_ms": 50.5, "raw_sat_p50_ms": 101, "slowdown": 2} {
		if got := rd.Values[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	clock, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	if us, err := clock.read(); err != nil || us <= 0 {
		t.Errorf("the yardstick request took %v µs, %v", us, err)
	}
	if err := clock.close(); err != nil {
		t.Error(err)
	}
}

func TestSteal(t *testing.T) {
	a := parseCPUTimes("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n")
	b := parseCPUTimes("cpu  150 0 60 820 10 0 5 55 0 0\n")
	if !a.ok || a.steal != 35 || a.busy != 190 {
		t.Fatalf("parsed %+v", a)
	}
	if got := stealShare(a, b); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("steal share = %v, want 20 of 80 busy ticks", got)
	}
	if got := stealShare(cpuTimes{}, b); got != -1 {
		t.Errorf("steal share without a first reading = %v, want -1", got)
	}
	if parseCPUTimes("").ok || parseCPUTimes("cpu 1 2 3").ok {
		t.Error("a malformed /proc/stat parsed")
	}
}

func TestSeedFixesInputs(t *testing.T) {
	for _, w := range workloads() {
		e := &env{seed: 5}
		a, b, other := w.seq(e), w.seq(e), w.seq(&env{seed: 6})
		differs := false
		for i := uint64(0); i < 500; i++ {
			na, sa := a(i)
			nb, sb := b(i)
			if na != nb || !bytes.Equal(sa.raw, sb.raw) {
				t.Fatalf("%s: request %d differs between two runs of one seed", w.name, i)
			}
			_, so := other(i)
			differs = differs || !bytes.Equal(sa.raw, so.raw)
		}
		if !differs && !w.oneRequest {
			t.Errorf("%s: seeds 5 and 6 give the same requests", w.name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// request 0..100 ─ handler 10..90 ─┬ sweep 20..50 (+ a count record)
	//                                  └ decide 55..80 ─ execute 60..70
	spans := []span{
		{ID: 1, Req: 1, Name: spanRequest, StartNs: 0, EndNs: 100e3},
		{ID: 2, Parent: 1, Req: 1, Name: "n0 POST /v1/queries", StartNs: 10e3, EndNs: 90e3},
		{ID: 3, Parent: 2, Req: 1, Name: spanSweep, StartNs: 20e3, EndNs: 50e3},
		{ID: 4, Parent: 3, Req: 1, Name: countEstimate, Count: 18, TotalNs: 20e3, MaxNs: 3e3},
		{ID: 5, Parent: 2, Req: 1, Name: spanDecide, StartNs: 55e3, EndNs: 80e3},
		{ID: 6, Parent: 5, Req: 1, Name: spanExecute, StartNs: 60e3, EndNs: 70e3},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 20e3, 2: 25e3, 3: 30e3, 5: 15e3, 6: 10e3}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	l := spanLedger(spans, 2)
	for name, want := range map[string]float64{
		"transport.self_us":     20,
		"server.handler_us":     80,
		"server.self_us":        25,
		"ires.plan_sweep_us":    30,
		"ires.sweep_self_us":    20, // 30 − 20 of model time over 2 workers
		"ires.decide_us":        25,
		"ires.decide_self_us":   15,
		"federation.execute_us": 10,
		"core.estimate_calls":   18,
		"core.estimate_cold_us": 3,
		"core.estimate_warm_ns": 1000,
		"diag.trace_requests":   1,
	} {
		if got := l[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// The layers of a request add up to its round trip.
	if sum := l["transport.self_us"] + l["server.self_us"] + l["ires.plan_sweep_us"] + l["ires.decide_us"]; sum != l["diag.client_rtt_p50_us"] {
		t.Errorf("layers sum to %v, round trip is %v", sum, l["diag.client_rtt_p50_us"])
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("ignored"); id != 0 {
		t.Fatal("a span began while tracing was off")
	}
	tr.enable(true)
	tr.nextRequest()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	sibling := tr.begin("sibling")
	tr.end(sibling)
	tr.end(outer)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	spans, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 || spans[1].Parent != outer || spans[2].Parent != outer || spans[0].Parent != 0 || spans[2].Req != 1 {
		t.Errorf("spans read back as %+v", spans)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x")) // a nil tracer records nothing and does not panic
}

func TestCompareBounds(t *testing.T) {
	var spec benchmarkSpec
	if err := json.Unmarshal([]byte(`{"end_to_end":[
		{"name":"p50_ms","better":"lower","bound":0.10},
		{"name":"throughput_rps","better":"higher","bound":0.10}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	mk := func(p50, rps float64, digest string) *result {
		return &result{Workloads: map[string]*workloadResult{"solo": {Digest: digest, Metrics: map[string]metricValue{
			"p50_ms": {Value: p50, Unit: "ms"}, "throughput_rps": {Value: rps, Unit: "1/s"}}}}}
	}
	var out bytes.Buffer
	if !compareResults(&spec, mk(1, 1000, "d"), mk(1.09, 950, "d"), &out) {
		t.Errorf("within the bounds, yet:\n%s", out.String())
	}
	if !compareResults(&spec, mk(1, 1000, "d"), mk(0.5, 2000, "d"), &out) {
		t.Error("an improvement failed the comparison")
	}
	out.Reset()
	if compareResults(&spec, mk(1, 1000, "d"), mk(1.2, 1000, "d"), &out) || !strings.Contains(out.String(), "FAIL") {
		t.Errorf("p50 20%% worse passed a 10%% bound:\n%s", out.String())
	}
	if compareResults(&spec, mk(1, 1000, "d"), mk(1, 800, "d"), &out) {
		t.Error("throughput 20% lower passed a 10% bound")
	}
	if compareResults(&spec, mk(1, 1000, "d"), mk(1, 1000, "e"), &out) {
		t.Error("different decision digests passed")
	}
	if got := strings.Count(out.String(), "solo"); got < 6 {
		t.Errorf("want one row per (metric, workload), got:\n%s", out.String())
	}
}

func TestCompareMedians(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, digest string) string {
		path := filepath.Join(dir, name)
		r := result{Workloads: map[string]*workloadResult{"solo": {Name: "solo", Digest: digest,
			Metrics: map[string]metricValue{"p50_ms": {Value: p50, Unit: "ms"}}}}}
		if err := writeJSON(path, &r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	set := write("1.json", 1, "d") + "," + write("2.json", 9, "d") + "," + write("3.json", 2, "d")
	r, err := medianResult(set)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Workloads["solo"].Metrics["p50_ms"]; got.Value != 2 || got.Unit != "ms" {
		t.Errorf("median of 1, 9, 2 = %+v", got)
	}
	if _, err := medianResult(set + "," + write("4.json", 2, "other")); err == nil {
		t.Error("a set whose runs decided differently was accepted")
	}
}

func TestChecker(t *testing.T) {
	w := workloads()[0]
	check := w.checker()
	spec := encodeSubmit("solo", "Q12", [2]float64{1, 1})
	good := server.QueryResponse{Federation: "solo", Query: "Q12", Plan: server.PlanJSON{Query: "Q12", NodesLeft: 4, NodesRight: 1},
		EstimatedTimeS: 3, EstimatedUSD: 0, MeasuredTimeS: 4, MeasuredUSD: 0.1, ParetoSize: 2, PlanSpace: 18, PlansEstimated: 18}
	if err := check(&spec, &good); err != nil {
		t.Fatalf("a valid decision failed: %v", err)
	}
	for name, mutate := range map[string]func(*server.QueryResponse){
		"plan outside the lattice": func(r *server.QueryResponse) { r.Plan.NodesLeft = 3 },
		"another query's plan":     func(r *server.QueryResponse) { r.Plan.Query = "Q13" },
		"pruned sweep":             func(r *server.QueryResponse) { r.PlansEstimated = 9 },
		"zero measurement":         func(r *server.QueryResponse) { r.MeasuredUSD = 0 },
		"negative estimate":        func(r *server.QueryResponse) { r.EstimatedTimeS = -1 },
		"infinite estimate":        func(r *server.QueryResponse) { r.EstimatedUSD = math.Inf(1) },
	} {
		bad := good
		mutate(&bad)
		if check(&spec, &bad) == nil {
			t.Errorf("%s passed the check", name)
		}
	}
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the program's tables
// from drifting apart: the driver refuses a run whose metrics are not
// exactly the declared ones.
func TestSpecMatchesProgram(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON(specPath, &spec); err != nil {
		t.Fatal(err)
	}
	better := func(d metricDef) string {
		if d.lower {
			return "lower"
		}
		return "higher"
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) || len(spec.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics on %d workloads, the program %d+%d on %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(spec.Workloads), len(endToEnd), len(perLayer), len(workloads()))
	}
	for i, d := range endToEnd {
		if m := spec.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != better(d) {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := spec.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != better(d) {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for i, w := range workloads() {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workloads[%d] = %+v, program has %s", i, spec.Workloads[i], w.name)
		}
	}
}

// TestSmoke runs all four workloads, both runs, at tiny sizes: boots,
// checks, the result files and teardown.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every workload twice")
	}
	goroutines := runtime.NumGoroutine()
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the summary: %v", err)
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
		t.Errorf("summary %+v", sum)
	}
	var res result
	if err := readJSON(filepath.Join(out, "result.json"), &res); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		wr := res.Workloads[w.name]
		if wr == nil {
			t.Fatalf("%s missing from result.json", w.name)
		}
		for _, d := range endToEnd {
			if v := wr.Metrics[d.name]; v.Value <= 0 || v.Unit != d.unit {
				t.Errorf("%s %s = %+v, want a positive value in %s", w.name, d.name, v, d.unit)
			}
			if _, ok := sum.Metrics[w.name+"."+d.name]; !ok {
				t.Errorf("%s.%s missing from the summary line", w.name, d.name)
			}
		}
		for _, d := range perLayer {
			if _, ok := wr.Layers[d.name]; !ok {
				t.Errorf("%s %s missing", w.name, d.name)
			}
		}
		if wr.Metrics["ok_share"].Value != 1 {
			t.Errorf("%s ok_share = %v", w.name, wr.Metrics["ok_share"].Value)
		}
		spans, err := readTrace(filepath.Join(out, "trace-"+w.name+".jsonl"))
		if err != nil || len(spans) == 0 {
			t.Errorf("%s trace: %d spans, %v", w.name, len(spans), err)
		}
	}
	// Each workload is dominated by the layer it was chosen for.
	if l := res.Workloads["cluster3"].Layers; l["cluster.redirect_share"].Value < 0.5 || l["cluster.frames_shipped_per_req"].Value < 1 {
		t.Errorf("cluster3 redirected %v of its requests and shipped %v frames per request",
			l["cluster.redirect_share"].Value, l["cluster.frames_shipped_per_req"].Value)
	}
	if l := res.Workloads["durable"].Layers; l["histstore.append_us"].Value <= 0 || l["histstore.read_page_us"].Value <= 0 {
		t.Errorf("durable ledger has no histstore time: %+v", l)
	}
	if l := res.Workloads["solo"].Layers; l["histstore.append_us"].Value != 0 || l["cluster.redirect_share"].Value != 0 {
		t.Errorf("solo bypasses histstore and cluster, yet: %+v", l)
	}

	// Teardown: scratch directories removed, listeners closed and every
	// server drained — their goroutines are gone.
	left, err := filepath.Glob(filepath.Join(out, "run-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("scratch directories left behind: %v %v", left, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
	}
	if _, err := os.Stat(filepath.Join(out, "result.json")); err != nil {
		t.Error(err)
	}
}
