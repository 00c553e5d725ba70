package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/ires"
	"repro/internal/tpch"
)

// span is one line of trace-<workload>.jsonl. A span proper has a start
// and an end; a count record (Count > 0) carries how many calls a layer
// boundary saw under its parent span, their total and their longest —
// the per-plan model and feature calls of a sweep are far too many for
// a span each.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns,omitempty"`
	EndNs   int64  `json:"end_ns,omitempty"`
	Count   int64  `json:"count,omitempty"`
	TotalNs int64  `json:"total_ns,omitempty"`
	MaxNs   int64  `json:"max_ns,omitempty"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer records spans from the benchmark's own decorators. The traced
// run drives one connection, so at most one request is in flight and
// the parent of a new span is simply the innermost span still open —
// whichever goroutine or node opened it. A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	req   int
	spans []span
	open  []int // ids of open spans, innermost last
}

// newTracer preallocates room for a traced run's spans so that growing
// the slice is not part of what the spans measure.
func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// enable switches recording on or off; spans begun while off are
// dropped, which keeps boot-time and scrape traffic out of the file.
func (t *tracer) enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.open = t.open[:0]
	t.mu.Unlock()
}

// nextRequest starts a new request id; every span begun until the next
// call carries it.
func (t *tracer) nextRequest() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.req++
	t.mu.Unlock()
}

// begin opens a span and returns its id, 0 when not recording.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, StartNs: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if id > len(t.spans) {
		return
	}
	t.spans[id-1].EndNs = now
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// count attaches a count record to the span parent.
func (t *tracer) count(name string, parent int, c *callCount) {
	n := c.n.Swap(0)
	total, longest := c.total.Swap(0), c.max.Swap(0)
	if t == nil || parent == 0 || n == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name, Count: n, TotalNs: total, MaxNs: longest})
}

// callCount accumulates the calls of one layer boundary between two
// flushes; a sweep's workers update it concurrently.
type callCount struct {
	n, total, max atomic.Int64
}

func (c *callCount) observe(d time.Duration) {
	c.n.Add(1)
	c.total.Add(int64(d))
	for {
		cur := c.max.Load()
		if int64(d) <= cur || c.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// write stores the trace as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readTrace loads a trace file back; the per-layer ledger is computed
// from the file, so the file alone is enough to recompute it.
func readTrace(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// selfTimes returns, per span id, the span's duration minus the part of
// it its child spans cover. With one request in flight children of one
// parent never overlap, so the covered part is the clipped sum.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		if s.Count == 0 {
			self[s.ID] = s.dur()
			byID[s.ID] = s
		}
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if s.Count != 0 || !ok {
			continue
		}
		start, end := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
		if end > start {
			self[p.ID] -= end - start
		}
	}
	return self
}

// middleware records one span per request a node's handler serves,
// named "<node> <method> <path>" so the standby's replicate calls show
// beside the owner's submits.
func (t *tracer) middleware(node string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.begin(node + " " + r.Method + " " + r.URL.Path)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// Span and count names the decorators record.
const (
	spanRequest   = "client.request"
	spanPost      = "client.post"
	spanSweep     = "ires.PlanSweep"
	spanDecide    = "ires.DecideFromSweep"
	spanExecute   = "federation.Execute"
	countEstimate = "core.Estimate"
	countFeatures = "federation.Features"
)

// tracedScheduler decorates the server.QueryScheduler seam.
type tracedScheduler struct {
	inner *ires.Scheduler
	tr    *tracer
	model *tracedModel
	exec  *tracedExecutor
	// lastSweep keeps the most recent sweep for the moo probe.
	lastSweep atomic.Pointer[ires.Sweep]
}

func (s *tracedScheduler) PlanSweep(ctx context.Context, q tpch.QueryID) (*ires.Sweep, error) {
	id := s.tr.begin(spanSweep)
	sw, err := s.inner.PlanSweep(ctx, q)
	s.tr.count(countEstimate, id, &s.model.calls)
	s.tr.count(countFeatures, id, &s.exec.features)
	s.tr.end(id)
	if sw != nil {
		s.lastSweep.Store(sw)
	}
	return sw, err
}

func (s *tracedScheduler) DecideFromSweep(sw *ires.Sweep, pol ires.Policy) (*ires.Decision, error) {
	id := s.tr.begin(spanDecide)
	dec, err := s.inner.DecideFromSweep(sw, pol)
	s.tr.end(id)
	return dec, err
}

func (s *tracedScheduler) History(q tpch.QueryID) *core.History { return s.inner.History(q) }

// Checkpoint keeps the drain-time checkpoint the undecorated scheduler
// offers through server.Checkpointer.
func (s *tracedScheduler) Checkpoint() error { return s.inner.Checkpoint() }

// tracedModel decorates ires.SnapshotCostModel; it forwards the
// optional capabilities the scheduler probes for, so the decorated
// stack publishes the same /metrics series and takes the same cache
// size as the plain one.
type tracedModel struct {
	inner *ires.DREAMModel
	calls callCount
}

func (m *tracedModel) Name() string { return m.inner.Name() }

func (m *tracedModel) Estimate(h *core.History, x []float64) ([]float64, error) {
	began := time.Now()
	v, err := m.inner.Estimate(h, x)
	m.calls.observe(time.Since(began))
	return v, err
}

func (m *tracedModel) EstimateSnapshot(s *core.Snapshot, x []float64) ([]float64, error) {
	began := time.Now()
	v, err := m.inner.EstimateSnapshot(s, x)
	m.calls.observe(time.Since(began))
	return v, err
}

func (m *tracedModel) EstimatorStats() core.EstimatorStats { return m.inner.EstimatorStats() }
func (m *tracedModel) SetModelCacheSize(n int)             { m.inner.SetModelCacheSize(n) }

// tracedExecutor decorates federation.Executor: a span per execution,
// a count for the per-plan feature calls.
type tracedExecutor struct {
	inner    federation.Executor
	tr       *tracer
	features callCount
}

func (e *tracedExecutor) Execute(p federation.Plan) (*federation.Outcome, error) {
	id := e.tr.begin(spanExecute)
	out, err := e.inner.Execute(p)
	e.tr.end(id)
	return out, err
}

func (e *tracedExecutor) Features(p federation.Plan) ([]float64, error) {
	began := time.Now()
	x, err := e.inner.Features(p)
	e.features.observe(time.Since(began))
	return x, err
}
