// Package metrics is a zero-dependency, concurrency-safe metrics
// registry for the serving stack: counters, gauges and fixed-bucket
// histograms (with p50/p90/p99 extraction), optionally labeled, plus
// callback collectors that read values owned elsewhere at scrape time.
// A Registry renders the whole set in the Prometheus text exposition
// format, which is what midasd serves at GET /metrics.
//
// The package exists so every layer of the repo — core's estimator,
// ires' sweep pipeline, histstore's WAL, the HTTP server — can be
// instrumented without pulling a client library into a dependency-free
// module. Instrumentation through it is observation-only by
// construction: instruments hold atomics next to the code they observe
// and never feed back into any decision path, so the byte-identical
// determinism contract of the scheduler is untouched.
//
// Registration is meant for startup wiring; registering the same name
// twice with a different type, help string or label set panics, the
// same way misusing a prometheus client does — a misconfigured
// instrument is a programmer error, not a runtime condition.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind discriminates the instrument families a Registry holds.
type Kind int

// The instrument kinds, matching the Prometheus TYPE names.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry owns a set of named instrument families. All methods are
// safe for concurrent use; a scrape renders every instrument's current
// value.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order; rendering sorts, this keeps iteration stable
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is every series sharing one metric name.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series
	keys   []string // series registration order
}

// series is one labeled instrument (or scrape-time callback) of a
// family.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	histogram   *Histogram
	fn          func() float64 // counter/gauge func collectors
}

// register returns the family for name, creating it on first use and
// panicking when a second registration disagrees on kind, help, label
// names or buckets.
func (r *Registry) register(name, help string, kind Kind, labelNames []string, buckets []float64) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !labelRE.MatchString(l) {
			panic(fmt.Sprintf("metrics: metric %q: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:       name,
			help:       help,
			kind:       kind,
			labelNames: append([]string(nil), labelNames...),
			buckets:    append([]float64(nil), buckets...),
			series:     make(map[string]*series),
		}
		r.families[name] = f
		r.names = append(r.names, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %q re-registered as %v, was %v", name, kind, f.kind))
	}
	if f.help != help {
		panic(fmt.Sprintf("metrics: %q re-registered with different help", name))
	}
	if !equalStrings(f.labelNames, labelNames) {
		panic(fmt.Sprintf("metrics: %q re-registered with labels %v, was %v", name, labelNames, f.labelNames))
	}
	if !equalFloats(f.buckets, buckets) {
		panic(fmt.Sprintf("metrics: %q re-registered with different buckets", name))
	}
	return f
}

// seriesFor returns (creating if needed) the series of f keyed by the
// given label values; build constructs the instrument on first use.
func (f *family) seriesFor(labelValues []string, build func() *series) *series {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := seriesKey(labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = build()
		s.labelValues = append([]string(nil), labelValues...)
		f.series[key] = s
		f.keys = append(f.keys, key)
	}
	return s
}

// seriesKey builds an unambiguous map key from label values (values may
// contain any byte, so a separator alone would collide).
func seriesKey(values []string) string {
	var buf [64]byte
	b := buf[:0]
	for _, v := range values {
		b = strconv.AppendInt(b, int64(len(v)), 10)
		b = append(b, ':')
		b = append(b, v...)
	}
	return string(b)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically non-decreasing value. The zero value is
// not usable; obtain counters from a Registry.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v, which must be non-negative; negative deltas are dropped
// (a counter that can decrease is a gauge).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil, nil)
	s := f.seriesFor(nil, func() *series { return &series{counter: &Counter{}} })
	if s.counter == nil {
		panic(fmt.Sprintf("metrics: %q already registered as a func collector", name))
	}
	return s.counter
}

// CounterVec is a family of counters partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if len(labelNames) == 0 {
		panic(fmt.Sprintf("metrics: CounterVec %q needs at least one label", name))
	}
	return &CounterVec{f: r.register(name, help, KindCounter, labelNames, nil)}
}

// With returns the counter for the given label values (one per label
// name, in order), creating it on first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	s := v.f.seriesFor(labelValues, func() *series { return &series{counter: &Counter{}} })
	if s.counter == nil {
		panic(fmt.Sprintf("metrics: %q%v already registered as a func collector", v.f.name, labelValues))
	}
	return s.counter
}

// CounterFunc registers a counter whose value is read by fn at scrape
// time — the bridge for cumulative values owned by existing code (e.g.
// an estimator's cache-hit atomics). fn must be safe for concurrent
// use and must report a monotonically non-decreasing value. labelPairs
// alternates name, value, name, value…
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.registerFunc(name, help, KindCounter, fn, labelPairs)
}

// GaugeFunc registers a gauge read from fn at scrape time (e.g. a
// queue's current depth). fn must be safe for concurrent use.
// labelPairs alternates name, value, name, value…
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.registerFunc(name, help, KindGauge, fn, labelPairs)
}

func (r *Registry) registerFunc(name, help string, kind Kind, fn func() float64, labelPairs []string) {
	if fn == nil {
		panic(fmt.Sprintf("metrics: %q registered with nil func", name))
	}
	if len(labelPairs)%2 != 0 {
		panic(fmt.Sprintf("metrics: %q: odd label pair list", name))
	}
	names := make([]string, 0, len(labelPairs)/2)
	values := make([]string, 0, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		names = append(names, labelPairs[i])
		values = append(values, labelPairs[i+1])
	}
	f := r.register(name, help, kind, names, nil)
	fresh := false
	s := f.seriesFor(values, func() *series { fresh = true; return &series{fn: fn} })
	if !fresh {
		panic(fmt.Sprintf("metrics: duplicate func collector %q%v", name, values))
	}
	_ = s
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a value that can go up and down. The zero value is not
// usable; obtain gauges from a Registry.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (which may be negative).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeVec is a family of gauges partitioned by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	if len(labelNames) == 0 {
		panic(fmt.Sprintf("metrics: GaugeVec %q needs at least one label", name))
	}
	return &GaugeVec{f: r.register(name, help, KindGauge, labelNames, nil)}
}

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	s := v.f.seriesFor(labelValues, func() *series { return &series{gauge: &Gauge{}} })
	if s.gauge == nil {
		panic(fmt.Sprintf("metrics: %q%v already registered as a func collector", v.f.name, labelValues))
	}
	return s.gauge
}

// addFloat atomically adds delta to the float64 stored as bits in u.
func addFloat(u *atomic.Uint64, delta float64) {
	for {
		old := u.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if u.CompareAndSwap(old, next) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Histogram

// Histogram counts observations into fixed buckets and tracks their
// sum — enough to render the Prometheus histogram series and to
// extract approximate quantiles. The zero value is not usable; obtain
// histograms from a Registry.
type Histogram struct {
	// upper bucket bounds, strictly increasing; the +Inf bucket is
	// implicit.
	bounds []float64
	counts []atomic.Uint64 // per-bucket (non-cumulative), len(bounds)+1
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// First bucket whose upper bound contains v; the +Inf bucket is
	// index len(bounds).
	i := sort.SearchFloat64s(h.bounds, v)
	// SearchFloat64s finds the first bound >= v, which is exactly the
	// Prometheus le-semantics bucket.
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket
// counts, interpolating linearly within the containing bucket — the
// same estimate Prometheus' histogram_quantile computes. The lowest
// bucket interpolates from 0; an observation landing in the +Inf
// bucket reports the highest finite bound. With no observations it
// returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if cum+c >= rank && c > 0 {
			if i == len(h.bounds) {
				// +Inf bucket: the best point estimate is the highest
				// finite bound (or 0 with no finite buckets).
				if len(h.bounds) == 0 {
					return 0
				}
				return h.bounds[len(h.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (rank - cum) / c
			if frac < 0 {
				frac = 0
			}
			return lower + (h.bounds[i]-lower)*frac
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// Merged returns a detached histogram holding the summed buckets of hs
// — children of one family, hence sharing bounds — so one Quantile call
// answers for the whole group (e.g. a federation across its queries).
func Merged(hs ...*Histogram) *Histogram {
	if len(hs) == 0 {
		return newHistogram(nil)
	}
	m := newHistogram(hs[0].bounds)
	for _, h := range hs {
		for i := range h.counts {
			c := h.counts[i].Load()
			m.counts[i].Add(c)
			m.count.Add(c)
		}
		addFloat(&m.sum, h.Sum())
	}
	return m
}

// Histogram registers (or fetches) an unlabeled histogram with the
// given bucket upper bounds (strictly increasing; +Inf implicit). Nil
// buckets select DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	buckets = checkBuckets(name, buckets)
	f := r.register(name, help, KindHistogram, nil, buckets)
	s := f.seriesFor(nil, func() *series { return &series{histogram: newHistogram(f.buckets)} })
	return s.histogram
}

// HistogramVec is a family of histograms partitioned by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labeled histogram family. Nil
// buckets select DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if len(labelNames) == 0 {
		panic(fmt.Sprintf("metrics: HistogramVec %q needs at least one label", name))
	}
	buckets = checkBuckets(name, buckets)
	return &HistogramVec{f: r.register(name, help, KindHistogram, labelNames, buckets)}
}

// With returns the histogram for the given label values, creating it
// on first use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	s := v.f.seriesFor(labelValues, func() *series { return &series{histogram: newHistogram(v.f.buckets)} })
	return s.histogram
}

func checkBuckets(name string, buckets []float64) []float64 {
	if buckets == nil {
		buckets = DefBuckets
	}
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q with no buckets", name))
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic(fmt.Sprintf("metrics: histogram %q buckets not strictly increasing", name))
		}
	}
	if math.IsInf(buckets[len(buckets)-1], +1) {
		buckets = buckets[:len(buckets)-1] // +Inf is implicit
	}
	return buckets
}

// DefBuckets is the one latency ladder of the serving stack — request
// and sweep durations both use it — 10 µs to 30 s in 1–2.5–5 steps: a
// solo round trip is ~35 µs server-side, an 18-plan sweep ~18 µs, a
// 2,048-plan one ~0.2 ms and a cold wide sweep runs to seconds, and
// /v1/stats percentiles are only as fine as the bucket they land in.
var DefBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
	2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// ExponentialBuckets returns n bucket bounds starting at start and
// multiplying by factor — e.g. ExponentialBuckets(1e-6, 4, 8) spans
// 1 µs to ~16 ms for WAL append latencies. start must be positive and
// factor > 1.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("metrics: invalid ExponentialBuckets(%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
