// Package core implements DREAM — the Dynamic Regression Algorithm that
// is the paper's primary contribution (Section 3, Algorithm 1).
//
// DREAM estimates the multi-metric cost vector of a query execution
// plan with Multiple Linear Regression fitted over a *dynamic* window
// of the most recent historical observations. The window starts at the
// statistically minimal size m = L+2 and grows one observation at a
// time until the coefficient of determination R² of every per-metric
// model reaches a user-required threshold (R²require, 0.8 in the
// paper) or the window hits Mmax. Keeping the window small both cuts
// the cost of estimating the (potentially tens of thousands of)
// equivalent plans in a cloud federation (paper Example 3.1) and keeps
// expired observations — stale under cloud load drift — out of the
// model.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/regression"
)

// DefaultRequiredR2 is the paper's recommended fit-quality threshold:
// "R² should be greater than 0.8 to provide a sufficient quality of
// service level."
const DefaultRequiredR2 = 0.8

// ErrNoMetrics is returned when a history is built with no cost metrics.
var ErrNoMetrics = errors.New("core: history needs at least one metric")

// ErrInsufficientHistory is returned when fewer than L+2 observations
// exist, below which no MLR model is defined.
var ErrInsufficientHistory = errors.New("core: insufficient history")

// ErrMetricCount is returned when an observation's cost vector does not
// match the history's metric set.
var ErrMetricCount = errors.New("core: observation metric count mismatch")

// ErrNonFinite is returned when an observation carries a NaN or ±Inf
// feature or cost: no regression fits one, and no JSON page or
// response can carry it.
var ErrNonFinite = errors.New("core: observation value is not finite")

// Observation is one completed execution: the feature vector that was
// known before running (data sizes, node counts, …) and the cost vector
// that was measured afterwards, one entry per metric.
type Observation struct {
	X     []float64
	Costs []float64
}

// HistorySink receives every observation appended to a History, in
// append order, before the observation becomes visible in memory — the
// seam a durable store (internal/histstore) plugs into without core
// knowing anything about disks. The write happens under the History
// lock (preserving sink order == memory order) while the wait for
// whatever makes it durable — an fsync, a standby's acknowledgement —
// happens after the lock is released, which is exactly what lets
// concurrent appends pile onto one flush, and overlap their replication
// round trips, instead of serializing one each.
type HistorySink interface {
	// RecordObservation persists one validated observation write-ahead,
	// possibly leaving it buffered, and returns a ticket for
	// WaitObservation. Called with the History's internal lock held, so
	// implementations must not call back into the History; they should
	// do their own (brief) synchronization and I/O and return. An error
	// aborts the append: the observation is NOT added to the in-memory
	// history (durable state is never behind a state the caller
	// observed). o is a view into the history's array, valid only for
	// the call (a failed append reuses its place): an implementation
	// copies whatever it keeps.
	RecordObservation(o Observation) (ticket uint64, err error)
	// WaitObservation blocks until the ticketed observation is durable
	// to the sink's configured level (e.g. its covering fsync has
	// returned) or the sink has failed. Called WITHOUT the History
	// lock. A non-nil error means durability was not achieved; the
	// in-memory append has already happened and is not rolled back —
	// callers must treat the error as "do not acknowledge this write".
	WaitObservation(ticket uint64) error
}

// History is an append-only, time-ordered log of observations for one
// operator or query template. Index 0 is the oldest observation ever
// appended; a history with a retention bound (SetRetain) holds only the
// newest ones, from index Base on, while Len and every index keep
// counting from the first.
//
// The observations held live in one pointer-free array, Dim+NumMetrics
// values each — the features, then the costs — so an observation costs
// its values and nothing else, and an append copies into spare capacity.
//
// A History is safe for concurrent use: appends take a write lock and
// bump a version counter, reads take a read lock. Concurrent estimators
// should grab a Snapshot once and work against that immutable view, so
// one scheduling round sees one consistent history even while executed
// plans stream observations in. Do not copy a History after first use.
type History struct {
	metrics []string
	dim     int
	width   int // values per observation: dim features, then the costs

	mu      sync.RWMutex
	base    int       // index of the first observation in vals
	n       int       // observations held: len(vals)/width
	vals    []float64 // the observations held, oldest first
	retain  int       // 0 = keep everything; see SetRetain
	version uint64
	sink    HistorySink
}

// NewHistory creates a history for the given feature dimension and
// named cost metrics (e.g. "time_s", "money_usd").
func NewHistory(dim int, metrics ...string) (*History, error) {
	return NewHistoryAt(0, dim, metrics...)
}

// NewHistoryAt creates a history whose first base observations are
// already gone: Len and Version start at base and the next Append is
// observation number base. It is how a durable store resumes a history
// whose oldest observations it has dropped.
func NewHistoryAt(base, dim int, metrics ...string) (*History, error) {
	if len(metrics) == 0 {
		return nil, ErrNoMetrics
	}
	if dim <= 0 {
		return nil, fmt.Errorf("core: non-positive feature dimension %d", dim)
	}
	if base < 0 {
		return nil, fmt.Errorf("core: negative history base %d", base)
	}
	ms := make([]string, len(metrics))
	copy(ms, metrics)
	return &History{metrics: ms, dim: dim, width: dim + len(ms), base: base, version: uint64(base)}, nil
}

// Metrics returns the metric names in cost-vector order.
func (h *History) Metrics() []string {
	out := make([]string, len(h.metrics))
	copy(out, h.metrics)
	return out
}

// Dim returns the feature dimension L.
func (h *History) Dim() int { return h.dim }

// Len returns the number of observations ever appended, retained or
// not: the index the next Append gets.
func (h *History) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.base + h.n
}

// Base returns the index of the oldest observation still held: 0 unless
// a retention bound has dropped older ones. At(i) is defined for
// Base() ≤ i < Len().
func (h *History) Base() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.base
}

// RetainedBase is the retention rule every holder of a bounded history
// applies — memory here, the owner's disk and the standby's replica in
// internal/histstore — so that they agree without talking to each
// other: with retain = R > 0 and n observations appended, everything
// below (⌊n/R⌋ − 1)·R may go, which keeps between R and 2R. Zero retain
// keeps everything.
func RetainedBase(n, retain uint64) uint64 {
	if retain == 0 || n < 2*retain {
		return 0
	}
	return (n/retain - 1) * retain
}

// SetRetain bounds the history to the newest retain..2·retain
// observations (RetainedBase), trimming at once and then on every
// Append that crosses a multiple of retain; zero lifts the bound
// without bringing anything back. A model that reads at most the newest
// retain observations cannot tell a bounded history from an unbounded
// one.
func (h *History) SetRetain(retain int) {
	h.mu.Lock()
	h.retain = max(retain, 0)
	h.trimLocked()
	h.mu.Unlock()
}

// trimLocked drops what RetainedBase allows by copying the observations
// kept into a fresh array of exactly their size — snapshots taken
// earlier keep reading the old one. Appends then grow it as any slice
// grows, so a bounded history holds its observations plus the slack of
// one growth step.
func (h *History) trimLocked() {
	keep := int(RetainedBase(uint64(h.base+h.n), uint64(h.retain)))
	if keep <= h.base {
		return
	}
	h.vals = append([]float64(nil), h.vals[(keep-h.base)*h.width:]...)
	h.n -= keep - h.base
	h.base = keep
}

// Version returns a counter that increments on every Append. A fitted
// model is valid for exactly one (history, version) pair, which is the
// key the estimator's model cache uses.
func (h *History) Version() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.version
}

// SetSink attaches (or, with nil, detaches) a durability sink. Every
// subsequent Append writes through the sink before the observation
// becomes visible in memory, and the sink sees observations in exactly
// the order the history holds them. Attach the sink before handing the
// History to appenders; observations appended earlier are not replayed
// into it.
func (h *History) SetSink(sink HistorySink) {
	h.mu.Lock()
	h.sink = sink
	h.mu.Unlock()
}

// Append records a completed execution, copying o's values; an
// observation holding a NaN or ±Inf is refused with ErrNonFinite. With a
// sink attached the observation is persisted first (write-ahead): a sink
// error aborts the append and the in-memory history is unchanged. The
// sink's durability wait runs after the history lock is released, so
// concurrent appenders coalesce onto shared flushes; a wait error means
// the observation is in memory but its durability is unconfirmed — the
// caller must not acknowledge the write.
func (h *History) Append(o Observation) error {
	if len(o.X) != h.dim {
		return fmt.Errorf("core: observation has %d features, history wants %d", len(o.X), h.dim)
	}
	if len(o.Costs) != len(h.metrics) {
		return fmt.Errorf("%w: got %d costs, want %d", ErrMetricCount, len(o.Costs), len(h.metrics))
	}
	if err := checkFinite("feature", o.X); err != nil {
		return err
	}
	if err := checkFinite("cost", o.Costs); err != nil {
		return err
	}
	h.mu.Lock()
	// The values go past the end every snapshot was cut at, so no reader
	// sees them until n counts them.
	at := len(h.vals)
	h.vals = append(append(h.vals, o.X...), o.Costs...)
	sink := h.sink
	var ticket uint64
	if sink != nil {
		var err error
		if ticket, err = sink.RecordObservation(h.obsAt(h.vals, at)); err != nil {
			h.vals = h.vals[:at]
			h.mu.Unlock()
			return fmt.Errorf("core: history sink: %w", err)
		}
	}
	h.n++
	h.version++
	if h.retain > 0 && (h.base+h.n)%h.retain == 0 {
		h.trimLocked()
	}
	h.mu.Unlock()
	if sink != nil {
		if err := sink.WaitObservation(ticket); err != nil {
			return fmt.Errorf("core: history sink: %w", err)
		}
	}
	return nil
}

// checkFinite refuses the first NaN or ±Inf in vs, naming it.
func checkFinite(what string, vs []float64) error {
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s %d is %v", ErrNonFinite, what, i, v)
		}
	}
	return nil
}

// obsAt is the observation whose values start at vals[at]: capped views,
// so an append to either vector cannot reach the next one.
func (h *History) obsAt(vals []float64, at int) Observation {
	x, end := at+h.dim, at+h.width
	return Observation{X: vals[at:x:x], Costs: vals[x:end:end]}
}

// At returns the i-th observation ever appended, oldest first; i must
// not be below Base. Its vectors are views into the history: read only.
// It reads through a snapshot, whose capped view makes an index outside
// the held range panic instead of reading the array's spare capacity.
func (h *History) At(i int) Observation {
	var s Snapshot
	h.SnapshotTo(&s)
	return s.At(i)
}

// Snapshot captures an immutable view of the current history. The
// returned snapshot is safe to read without locking while other
// goroutines keep appending: values are never written where a snapshot
// can see them (appends go past its end, a trim moves the history to a
// new array), so the captured range stays valid forever.
func (h *History) Snapshot() *Snapshot {
	s := new(Snapshot)
	h.SnapshotTo(s)
	return s
}

// SnapshotTo is Snapshot written into s, for a caller that owns the
// storage (a pooled scheduling round).
func (h *History) SnapshotTo(s *Snapshot) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	*s = Snapshot{
		owner:   h,
		version: h.version,
		base:    h.base,
		n:       h.n,
		vals:    h.vals[:len(h.vals):len(h.vals)],
	}
}

// Snapshot is a point-in-time immutable view of a History. All methods
// are safe for concurrent use without further locking.
type Snapshot struct {
	owner   *History
	version uint64
	base    int
	n       int       // observations held
	vals    []float64 // their values, as History holds them
}

// Len returns the number of observations appended when the snapshot was
// taken; the snapshot holds those from Base on.
func (s *Snapshot) Len() int { return s.base + s.n }

// Base returns the index of the oldest observation the snapshot holds.
func (s *Snapshot) Base() int { return s.base }

// At returns the i-th observation ever appended, oldest first; i must
// not be below Base. Its vectors are views into the snapshot: read only.
func (s *Snapshot) At(i int) Observation {
	return s.owner.obsAt(s.vals, (i-s.base)*s.owner.width)
}

// Dim returns the feature dimension L.
func (s *Snapshot) Dim() int { return s.owner.dim }

// Metrics returns the metric names in cost-vector order.
func (s *Snapshot) Metrics() []string { return s.owner.Metrics() }

// NumMetrics returns the length of the cost vector, without the copy
// Metrics makes.
func (s *Snapshot) NumMetrics() int { return len(s.owner.metrics) }

// MetricName returns the name of metric n, without the copy Metrics
// makes.
func (s *Snapshot) MetricName(n int) string { return s.owner.metrics[n] }

// Version reports the history version the snapshot was taken at.
func (s *Snapshot) Version() uint64 { return s.version }

// GrowthPolicy selects how the window expands when fit quality is
// insufficient. The paper's Algorithm 1 uses GrowByOne; Doubling is an
// ablation that trades window tightness for fewer refits.
type GrowthPolicy int

const (
	// GrowByOne increments m by 1 per iteration (paper, Algorithm 1
	// line 11: "m = m + 1").
	GrowByOne GrowthPolicy = iota
	// Doubling doubles the window per iteration (clamped to Mmax).
	Doubling
)

// Config parameterizes a DREAM estimator.
type Config struct {
	// RequiredR2 is the per-metric fit threshold; a single global value
	// applied to all metrics. Defaults to DefaultRequiredR2.
	RequiredR2 float64
	// MMax caps the window size (Algorithm 1's Mmax). Zero means "the
	// whole available history".
	MMax int
	// Growth selects the window growth schedule.
	Growth GrowthPolicy
	// CacheSize switches the model cache: the window search of
	// Algorithm 1 does not depend on the plan being estimated, so the
	// estimator keeps the last fit it looked up and reuses it for every
	// plan estimated against the same history version. A negative value
	// disables the cache; any other value keeps the one fit.
	CacheSize int
}

// Estimator runs Algorithm 1 against a History. It is safe for
// concurrent use by multiple goroutines.
type Estimator struct {
	cfg Config

	// fitters pools the incremental shared-Gram fitters so a window
	// search in steady state performs O(1) allocations regardless of how
	// far the window grows; each in-flight search owns one fitter.
	fitters sync.Pool

	// cache is nil when caching is disabled. It is read once per fit
	// lookup, hence a pointer load and not a mutex; SetCacheSize swaps in
	// an empty cache, which drops the fit the old one held.
	cache atomic.Pointer[fitCache]

	// Observation-only instrumentation counters (see Stats): they are
	// written with atomics on the side of the fit path and never read
	// by it, so they cannot perturb any estimate.
	windowSearches   atomic.Uint64
	refitsTotal      atomic.Uint64
	incrementalSteps atomic.Uint64
	refitsAvoided    atomic.Uint64
	lastWindowSize   atomic.Int64
	lastConverged    atomic.Bool
}

// NewEstimator validates the configuration and returns an estimator.
func NewEstimator(cfg Config) (*Estimator, error) {
	if cfg.RequiredR2 == 0 {
		cfg.RequiredR2 = DefaultRequiredR2
	}
	if cfg.RequiredR2 < 0 || cfg.RequiredR2 > 1 {
		return nil, fmt.Errorf("core: RequiredR2 %v outside [0,1]", cfg.RequiredR2)
	}
	if cfg.MMax < 0 {
		return nil, fmt.Errorf("core: negative MMax %d", cfg.MMax)
	}
	e := &Estimator{cfg: cfg}
	e.SetCacheSize(cfg.CacheSize)
	return e, nil
}

// SetCacheSize disables the model cache when n is negative and
// otherwise turns it on, empty: either way the cached fit and the
// cache's counters are dropped.
func (e *Estimator) SetCacheSize(n int) {
	if n < 0 {
		e.cache.Store(nil)
		return
	}
	e.cache.Store(new(fitCache))
}

// CacheStats reports model-cache hits and misses since construction or
// the last SetCacheSize call. Both are zero when caching is disabled.
func (e *Estimator) CacheStats() (hits, misses uint64) {
	cache := e.cache.Load()
	if cache == nil {
		return 0, 0
	}
	return cache.hits.Load(), cache.misses.Load()
}

// EstimatorStats is a point-in-time view of the estimator's
// observation-only instrumentation — the numbers an operator watches
// to see Algorithm 1 working (and drifting) in a live process.
type EstimatorStats struct {
	// WindowSearches counts completed runs of the window-growth loop;
	// with the model cache on, one per cache miss: a version looked up
	// again after another took the cache's one slot is searched again.
	WindowSearches uint64
	// Refits counts MLR fits across all searches — the paper's
	// Example 3.1 computational-cost signal, cumulative: K per round of
	// window growth (one per metric), each a back-substitution against
	// the round's shared Gram factor.
	Refits uint64
	// IncrementalSteps counts rank-1 observation updates folded into
	// shared-Gram fitters — the work the incremental search actually
	// performs per window growth step (O(L²+K·L) each).
	IncrementalSteps uint64
	// RefitsAvoided counts the fits, K per growth round after a
	// search's first, that reused the Gram accumulated over the smaller
	// window — reading only the observations the window grew by —
	// instead of refitting each metric over the whole window.
	RefitsAvoided uint64
	// LastWindowSize is the final m of the most recent window search.
	// Under drift the search needs more observations to reach the
	// required R², so this growing toward Mmax is the operator's
	// leading signal that execution conditions are moving.
	LastWindowSize int
	// LastConverged reports whether that search reached RequiredR2 on
	// every metric before exhausting the window.
	LastConverged bool
	// CacheHits and CacheMisses mirror CacheStats.
	CacheHits, CacheMisses uint64
}

// Stats returns the estimator's instrumentation counters. It is safe
// for concurrent use and never blocks an in-flight estimate.
func (e *Estimator) Stats() EstimatorStats {
	hits, misses := e.CacheStats()
	return EstimatorStats{
		WindowSearches:   e.windowSearches.Load(),
		Refits:           e.refitsTotal.Load(),
		IncrementalSteps: e.incrementalSteps.Load(),
		RefitsAvoided:    e.refitsAvoided.Load(),
		LastWindowSize:   int(e.lastWindowSize.Load()),
		LastConverged:    e.lastConverged.Load(),
		CacheHits:        hits,
		CacheMisses:      misses,
	}
}

// MetricEstimate is the per-metric output of Algorithm 1.
type MetricEstimate struct {
	Metric string
	Value  float64 // ĉₙ(p): the predicted cost
	R2     float64 // fit quality of the model that produced Value
	Model  *regression.Model
}

// Estimate is the result of one EstimateCostValue call.
type Estimate struct {
	Metrics []MetricEstimate
	// WindowSize is the final m: the size of the "new training set"
	// DREAM hands to Modelling (paper Figure 2).
	WindowSize int
	// Converged reports whether every metric reached RequiredR2 before
	// the window was exhausted.
	Converged bool
	// Refits counts model fits performed across all metrics — the
	// computational-cost signal for the Example 3.1 experiment.
	Refits int
}

// Values returns the predicted cost vector in metric order.
func (e *Estimate) Values() []float64 {
	out := make([]float64, len(e.Metrics))
	for i, m := range e.Metrics {
		out[i] = m.Value
	}
	return out
}

// EstimateCostValue implements Algorithm 1: predict the cost vector of
// a plan with feature vector x from the smallest window of history that
// explains the observed variance well enough.
func (e *Estimator) EstimateCostValue(h *History, x []float64) (*Estimate, error) {
	return e.EstimateSnapshot(h.Snapshot(), x)
}

// EstimateSnapshot runs Algorithm 1 against a point-in-time history
// snapshot. A scheduling round scoring many plans should take the
// snapshot once so every plan is scored against the same history
// version (and hits the same cached fit).
func (e *Estimator) EstimateSnapshot(s *Snapshot, x []float64) (*Estimate, error) {
	if err := s.checkDim(len(x)); err != nil {
		return nil, err
	}
	fit, err := e.fitFor(s, 1)
	if err != nil {
		return nil, err
	}
	est := &Estimate{
		Metrics:    make([]MetricEstimate, len(fit.models)),
		WindowSize: fit.windowSize,
		Converged:  fit.converged,
		Refits:     fit.refits,
	}
	for n := range fit.models {
		v, err := fit.models[n].Predict(x)
		if err != nil {
			return nil, err
		}
		est.Metrics[n] = MetricEstimate{
			Metric: s.MetricName(n),
			Value:  v,
			R2:     fit.models[n].R2,
			Model:  fit.models[n],
		}
	}
	return est, nil
}

// windowFit is the plan-independent output of Algorithm 1's window
// search: the fitted per-metric models and the search statistics. It is
// what the model cache stores, keyed by (history, version). Up to
// InlineMetrics models over up to InlineFeatures features live in it, so
// a fit is one allocation; a larger one takes its models from the heap.
// It must not be copied: models points into it.
type windowFit struct {
	models     []*regression.Model
	windowSize int
	converged  bool
	// refits counts the model fits the search performed. Estimates
	// served from cache report the producing search's count, so the
	// Example 3.1 computational-cost signal stays comparable across
	// cached and uncached runs.
	refits int

	ptrs  [InlineMetrics]*regression.Model
	store [InlineMetrics]regression.Model
	beta  [InlineMetrics * fitCoefs]float64
}

// InlineMetrics and InlineFeatures are the model shape a window fit holds
// inline: the served one, two cost metrics over five plan features. A
// caller that stores an estimate beside its own record sizes it by
// InlineMetrics, so one change of the served shape reaches both.
const InlineMetrics, InlineFeatures = 2, 5

// fitCoefs is the coefficients of one inline model: β₀ and one per
// feature.
const fitCoefs = InlineFeatures + 1

// setModels materializes the fitter's last solve as fit's models: k
// metrics of p coefficients each, inline when they fit.
func (fit *windowFit) setModels(fitter *regression.IncrementalFitter, k, p int) {
	var store []regression.Model
	var beta []float64
	if k <= InlineMetrics && p <= fitCoefs {
		fit.models, store, beta = fit.ptrs[:k], fit.store[:k], fit.beta[:k*p]
	} else {
		fit.models, store, beta = make([]*regression.Model, k), make([]regression.Model, k), make([]float64, k*p)
	}
	for n := range store {
		store[n] = fitter.ModelInto(n, beta[n*p:(n+1)*p])
		fit.models[n] = &store[n]
	}
}

// PredictSnapshot is EstimateSnapshot reduced to the cost vector: it
// appends ĉₙ(p) for every metric, in metric order, to dst and returns
// the extended slice. The values are bit-identical to
// EstimateSnapshot(s, x).Values() and the errors are the same; what it
// skips is the per-metric diagnostics (R², model), which a scheduler
// scoring one plan among thousands never reads. An error leaves nothing
// appended.
func (e *Estimator) PredictSnapshot(dst []float64, s *Snapshot, x []float64) ([]float64, error) {
	models, err := e.Models(s, len(x), 1)
	if err != nil {
		return nil, err
	}
	for _, m := range models {
		v, err := m.Predict(x)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// Models returns the per-metric models, in metric order, that Algorithm
// 1 selects for the snapshot: what PredictSnapshot evaluates, for a caller
// that scores plans of dim features with them itself. It is one fit
// lookup (the checks, the cache, the single-flight wait), which the
// model cache counts as plans ≥ 1 lookups, so a sweep reads on the hit
// ratio as its plans looked up one by one would. With caching off it
// runs one window search, which never depended on the plan. The models
// are shared with every other caller: read only.
func (e *Estimator) Models(s *Snapshot, dim, plans int) ([]*regression.Model, error) {
	if err := s.checkDim(dim); err != nil {
		return nil, err
	}
	if plans < 1 {
		return nil, fmt.Errorf("core: a fit lookup for %d plans", plans)
	}
	fit, err := e.fitFor(s, plans)
	if err != nil {
		return nil, err
	}
	return fit.models, nil
}

// checkDim reports whether plans of dim features fit the snapshot.
func (s *Snapshot) checkDim(dim int) error {
	if dim != s.Dim() {
		return fmt.Errorf("core: plan has %d features, history has %d", dim, s.Dim())
	}
	return nil
}

// fitFor checks that the snapshot holds enough history for a model,
// then returns the window-search result, serving it from the model
// cache when possible. plans is how many plans the caller scores with
// the fit: the cache counts that many lookups.
func (e *Estimator) fitFor(s *Snapshot, plans int) (*windowFit, error) {
	minM := regression.MinObservations(s.Dim())
	if s.n < minM {
		return nil, fmt.Errorf("%w: have %d observations, need %d", ErrInsufficientHistory, s.n, minM)
	}
	cache := e.cache.Load()
	if cache == nil {
		fit := new(windowFit)
		if err := e.searchWindow(s, minM, fit); err != nil {
			return nil, err
		}
		return fit, nil
	}
	ent := cache.entry(fitKey{owner: s.owner, version: s.version}, plans)
	ent.once.Do(func() { ent.err = e.searchWindow(s, minM, &ent.fit) })
	if ent.err != nil {
		return nil, ent.err
	}
	return &ent.fit, nil
}

// fitKey identifies one immutable history state.
type fitKey struct {
	owner   *History
	version uint64
}

// fitEntry is the model cache's slot: the window fit of one history
// version, filled once. Concurrent estimators racing on a fresh key all
// wait on one window search instead of fitting the same models in
// parallel, and a failed search fails identically, without refitting,
// for every lookup of the key. It holds the fit itself, so a window
// search that fills it allocates nothing more for the served shape.
type fitEntry struct {
	key  fitKey
	once sync.Once
	fit  windowFit
	err  error
}

// fitCache is the model cache: one slot, the last fit looked up. A
// scheduling round estimates every plan of a query against one history
// version (paper Example 3.1: ≈18,200 plans), and every served request
// appends an observation, so the next round asks for a newer version
// and never again for an older one. One slot serves the round and pins
// no history but the last one looked up.
type fitCache struct {
	last         atomic.Pointer[fitEntry]
	hits, misses atomic.Uint64
}

// entry returns k's slot, installing an empty one when the cache holds
// another key. plans ≥ 1 is how many plans the caller scores through
// the slot, and the counters move by that many lookups — one miss and
// plans−1 hits when the slot is installed, plans hits otherwise — so a
// sweep reads on the hit ratio exactly as its plans looked up one by one
// would. The caller fills the slot through its once.
func (c *fitCache) entry(k fitKey, plans int) *fitEntry {
	var fresh *fitEntry
	for {
		last := c.last.Load()
		if last != nil && last.key == k {
			c.hits.Add(uint64(plans))
			return last
		}
		if fresh == nil {
			fresh = &fitEntry{key: k}
		}
		if c.last.CompareAndSwap(last, fresh) {
			c.misses.Add(1)
			c.hits.Add(uint64(plans - 1))
			return fresh
		}
	}
}

// searchWindow is Algorithm 1's window-growth loop: fit every metric on
// the current window, grow until all models reach RequiredR2 or the
// window hits Mmax. The window is the most recent m observations (the
// new training set "has the updated value and avoids using the expired
// information"), so it grows at its old end and the search runs
// incrementally against one shared-Gram fitter. The result is written
// into fit.
func (e *Estimator) searchWindow(s *Snapshot, minM int, fit *windowFit) error {
	mmax := e.cfg.MMax
	if mmax == 0 || mmax > s.n {
		mmax = s.n
	}
	if mmax < minM {
		mmax = minM
	}
	if err := e.searchWindowIncremental(s, minM, mmax, fit); err != nil {
		return err
	}
	e.windowSearches.Add(1)
	e.refitsTotal.Add(uint64(fit.refits))
	e.lastWindowSize.Store(int64(fit.windowSize))
	e.lastConverged.Store(fit.converged)
	return nil
}

func (e *Estimator) grow(m, mmax int) int {
	switch e.cfg.Growth {
	case Doubling:
		m *= 2
	default:
		m++
	}
	if m > mmax {
		m = mmax
	}
	return m
}
