// Package ires reimplements the Intelligent Resource Scheduler pipeline
// the paper builds MIDAS on (Section 2.4, Figure 1): an Interface that
// accepts a query and a user policy, a Modelling module that predicts
// multi-metric plan costs from execution history (pluggable: DREAM or
// the Best-ML baseline), a Multi-Objective Optimizer that produces a
// Pareto plan set, and the final selection under the policy (Algorithm 2).
// Executed plans feed their measured costs back into the history, the
// loop the whole estimation story depends on.
package ires

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/moo"
	"repro/internal/regression"
	"repro/internal/stats"
	"repro/internal/tpch"
)

// ErrNoHistory is returned when estimation is requested before any
// executions were recorded for a query.
var ErrNoHistory = errors.New("ires: no history for query")

// CostModel is the Modelling module contract: predict the cost vector
// of a plan with feature vector x from the history snapshot s. The
// scheduler takes one snapshot per round and scores the round's plans
// against it, so observations appended concurrently (by other
// rounds or by Bootstrap) cannot split one Pareto comparison across
// history versions.
//
// EstimateSnapshot must be safe for concurrent use: one round scores its
// plans in a loop, but a scheduler serves concurrent requests and each
// runs its own round against the one model. The models in this package
// are safe; a custom model with unsynchronized internal state needs its
// own locking. x is the executor's feature vector and is only valid
// during the call: copy it to keep it.
type CostModel interface {
	Name() string
	EstimateSnapshot(s *core.Snapshot, x []float64) ([]float64, error)
}

// LinearCostModel is the optional capability a sweep scores plans from
// directly, with no feature vectors: a CostModel whose EstimateSnapshot
// is, per metric, one regression.Model's Predict of x (eq. 6) clamped at
// zero, and nothing else. LinearModels returns those models, in
// cost-vector order, for plans of dim features scored against s — one
// fit lookup for that many plans, counted as that many lookups — and the
// caller must treat them as read only. Every lookup against one
// snapshot gives models with the same coefficients: a sweep looks them
// up once, for all its plans.
type LinearCostModel interface {
	CostModel
	LinearModels(s *core.Snapshot, dim, plans int) ([]*regression.Model, error)
}

// ---------------------------------------------------------------------------
// DREAM model

// DREAMModel adapts the core DREAM estimator to the Modelling contract.
type DREAMModel struct {
	Est *core.Estimator
}

// NewDREAMModel builds a DREAM Modelling module with the given config.
func NewDREAMModel(cfg core.Config) (*DREAMModel, error) {
	est, err := core.NewEstimator(cfg)
	if err != nil {
		return nil, err
	}
	return &DREAMModel{Est: est}, nil
}

// Name implements CostModel.
func (m *DREAMModel) Name() string { return "dream" }

// SetModelCacheSize switches the model cache as core.Config.CacheSize
// does (negative off, otherwise on and empty); it stays only because
// bench/trace.go's tracedModel forwards to it.
func (m *DREAMModel) SetModelCacheSize(n int) { m.Est.SetCacheSize(n) }

// Estimate is EstimateSnapshot against h's current snapshot; it stays
// only because bench/trace.go's tracedModel forwards to it.
func (m *DREAMModel) Estimate(h *core.History, x []float64) ([]float64, error) {
	return m.EstimateSnapshot(h.Snapshot(), x)
}

// EstimateSnapshot implements CostModel. Predicted costs are clamped at
// zero: time and money are non-negative by definition, and a regression
// line extrapolated below zero carries no information beyond "very
// small".
func (m *DREAMModel) EstimateSnapshot(s *core.Snapshot, x []float64) ([]float64, error) {
	out, err := m.Est.PredictSnapshot(make([]float64, 0, s.NumMetrics()), s, x)
	clampRows(out)
	return out, err
}

// LinearModels implements LinearCostModel.
func (m *DREAMModel) LinearModels(s *core.Snapshot, dim, plans int) ([]*regression.Model, error) {
	return m.Est.Models(s, dim, plans)
}

// clampRows clamps cost values at zero, in place.
func clampRows(costs []float64) {
	for i, v := range costs {
		if v < 0 {
			costs[i] = 0
		}
	}
}

// ---------------------------------------------------------------------------
// BML model with observation windows

// BMLModel is the IReS baseline: the Best-ML learner trained on a fixed
// observation window of the most recent history. WindowMultiple
// expresses the window as a multiple of N = L+2 (the paper's BML_N,
// BML_2N, BML_3N); 0 means the whole history (the paper's plain BML).
type BMLModel struct {
	// Learner defaults to ml.BML with default candidates.
	Learner ml.Learner
	// WindowMultiple k selects the k·(L+2) most recent observations;
	// 0 selects everything.
	WindowMultiple int
	// Seed feeds the default learner.
	Seed int64
}

// Name implements CostModel.
func (m *BMLModel) Name() string {
	if m.WindowMultiple <= 0 {
		return "bml"
	}
	return fmt.Sprintf("bml_%dN", m.WindowMultiple)
}

// EstimateSnapshot implements CostModel: train one model per metric on
// the window, then predict.
func (m *BMLModel) EstimateSnapshot(h *core.Snapshot, x []float64) ([]float64, error) {
	if h.Len() == 0 {
		return nil, ErrNoHistory
	}
	learner := m.Learner
	if learner == nil {
		learner = ml.BML{Seed: m.Seed}
	}
	// "Everything" is everything the history still holds.
	window := h.Len() - h.Base()
	if m.WindowMultiple > 0 {
		window = min(window, m.WindowMultiple*regression.MinObservations(h.Dim()))
	}
	start := h.Len() - window
	metrics := h.Metrics()
	out := make([]float64, len(metrics))
	for mi := range metrics {
		samples := make([]regression.Sample, window)
		for i := 0; i < window; i++ {
			obs := h.At(start + i)
			samples[i] = regression.Sample{X: obs.X, C: obs.Costs[mi]}
		}
		p, err := learner.Train(samples)
		if err != nil {
			return nil, fmt.Errorf("ires: %s metric %q: %w", m.Name(), metrics[mi], err)
		}
		v, err := p.Predict(x)
		if err != nil {
			return nil, err
		}
		if v < 0 {
			v = 0 // costs are non-negative by definition
		}
		out[mi] = v
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Scheduler

// SelectionStrategy picks how one plan is chosen from the Pareto set.
// WeightedSumSelection is the paper's Algorithm 2; the others implement
// its future-work item on "new strategies to choose QEPs in a Pareto
// Set".
type SelectionStrategy int

// Available Pareto-set selection strategies.
const (
	// WeightedSumSelection scores normalized costs with Policy.Weights
	// (Algorithm 2).
	WeightedSumSelection SelectionStrategy = iota
	// KneeSelection takes the knee of the Pareto front — no weights
	// needed.
	KneeSelection
	// LexicographicSelection minimizes objectives in Policy.LexOrder
	// priority order with Policy.LexTolerance tie bands.
	LexicographicSelection
)

// Policy is the user query policy of Algorithm 2: weighted-sum
// preferences S over the metrics and optional per-metric upper-bound
// constraints B (empty = unconstrained). Strategy switches to the
// alternative Pareto-selection rules.
type Policy struct {
	Weights     []float64
	Constraints []float64
	// Strategy defaults to WeightedSumSelection.
	Strategy SelectionStrategy
	// LexOrder and LexTolerance configure LexicographicSelection
	// (default order: metric 0 then 1, 5% tolerance).
	LexOrder     []int
	LexTolerance float64
}

// HistoryStore is the durable-history seam: a scheduler given one
// constructs its per-query histories through the store (recovering
// whatever the store already holds) instead of fresh in memory.
// internal/histstore implements this with one WAL per query; the
// interface keeps ires free of any storage dependency.
type HistoryStore interface {
	// OpenHistory returns the named history, recovered from durable
	// state when present and wired so subsequent appends are persisted.
	// Repeated opens of one name return the same *core.History.
	OpenHistory(name string, dim int, metrics []string) (*core.History, error)
	// Sync makes every observation appended so far, to any history the
	// store has open, durable against a machine crash.
	Sync() error
}

// Scheduler is the MIDAS/IReS pipeline instance. Everything it is
// built from is fixed by its constructor.
type Scheduler struct {
	fed   *federation.Federation
	exec  federation.Executor
	model CostModel
	// nodeChoices is the cluster-size menu used when enumerating QEPs.
	nodeChoices []int
	// store, when non-nil, owns every query history (SchedulerConfig.Store).
	store HistoryStore

	histMu    sync.Mutex
	histories map[tpch.QueryID]*core.History
	retain    int // SchedulerConfig.Retain
	rng       *stats.RNG

	// planCache holds each query's QEP lattice: the space depends only
	// on the query and nodeChoices, both fixed for the scheduler's
	// lifetime, so it is built once and shared (lattices are immutable).
	planMu    sync.RWMutex
	planCache map[tpch.QueryID]*federation.PlanLattice
	// featCache holds each plan's estimation feature vector. The
	// Executor contract makes Features deterministic for a fixed
	// executor (both executors derive it from fixed table sizes), so
	// one computation per distinct plan serves every later execution;
	// cached slices are immutable by the same convention.
	featMu    sync.RWMutex
	featCache map[federation.Plan][]float64

	// obs is the scheduler's observation-only instrumentation; nil
	// unless SchedulerConfig.Metrics was set (see metrics.go).
	obs *schedulerObs
}

// SchedulerConfig bundles the scheduler assembly knobs.
type SchedulerConfig struct {
	// NodeChoices is the cluster-size menu used when enumerating QEPs;
	// nil selects the default {1, 2, 4, 8, 16}.
	NodeChoices []int
	// Seed drives the scheduler's own randomness (Bootstrap sampling).
	Seed int64
	// Store injects a durable history store (see HistoryStore): query
	// histories are recovered from it at first touch and every recorded
	// execution is persisted through it. Nil keeps histories in memory.
	Store HistoryStore
	// Retain bounds every in-memory history the scheduler creates itself
	// to its newest Retain..2·Retain observations (core.History.SetRetain);
	// zero keeps everything. It must cover the model's largest window. A
	// Store bounds the histories it opens by its own setting.
	Retain int
	// Metrics, when non-nil, registers the scheduler's observation-only
	// instruments on the given registry, every series labeled with
	// MetricsFederation: sweep duration, plans estimated, plan space,
	// Pareto candidates and sweep errors, plus — for a model that implements EstimatorStatser —
	// DREAM's window-search and model-cache series, read at scrape time.
	// At most one scheduler per (registry, MetricsFederation) pair.
	Metrics *metrics.Registry
	// MetricsFederation is the value of the "federation" label on every
	// metric series this scheduler emits (empty = "default").
	MetricsFederation string
}

// NewSchedulerWithConfig assembles a scheduler around the given
// federation, executor and Modelling module.
func NewSchedulerWithConfig(fed *federation.Federation, exec federation.Executor, model CostModel, cfg SchedulerConfig) (*Scheduler, error) {
	if fed == nil || exec == nil || model == nil {
		return nil, errors.New("ires: nil dependency")
	}
	nodeChoices := cfg.NodeChoices
	if len(nodeChoices) == 0 {
		nodeChoices = []int{1, 2, 4, 8, 16}
	}
	// Fail at assembly, not mid-sweep: a malformed cluster-size menu
	// (duplicates, non-positive sizes) would otherwise surface as a
	// lattice error on the first request.
	if err := federation.ValidateNodeChoices(nodeChoices); err != nil {
		return nil, err
	}
	s := &Scheduler{
		fed:         fed,
		exec:        exec,
		model:       model,
		nodeChoices: nodeChoices,
		store:       cfg.Store,
		histories:   make(map[tpch.QueryID]*core.History),
		retain:      cfg.Retain,
		rng:         stats.NewRNG(cfg.Seed),
	}
	if cfg.Metrics != nil {
		s.instrument(cfg.Metrics, cfg.MetricsFederation)
	}
	return s, nil
}

// MMax caps Algorithm 1's window in the paper's DREAM stack at three
// times the statistical minimum L+2: no estimate reads further back.
const MMax = 3 * (federation.FeatureDim + 2)

// NewDREAMScheduler assembles the paper's MIDAS stack over fed: a
// ScaledExecutor replaying cal at scale sf, DREAM with Mmax = MMax as
// the Modelling module, and cfg for the rest.
func NewDREAMScheduler(fed *federation.Federation, cal *federation.Calibration, sf float64, cfg SchedulerConfig) (*Scheduler, error) {
	exec, err := federation.NewScaledExecutor(fed, cal, sf)
	if err != nil {
		return nil, err
	}
	model, err := NewDREAMModel(core.Config{MMax: MMax})
	if err != nil {
		return nil, err
	}
	return NewSchedulerWithConfig(fed, exec, model, cfg)
}

// OpenHistory returns (creating — or, with a Store, recovering — if
// needed) the execution history of a query. With a Store attached this
// can fail on unreadable or mismatched durable state; callers that wire
// a store should open every query they serve at boot so recovery errors
// surface there and not mid-request.
func (s *Scheduler) OpenHistory(q tpch.QueryID) (*core.History, error) {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	h, ok := s.histories[q]
	if ok {
		return h, nil
	}
	var err error
	if s.store != nil {
		h, err = s.store.OpenHistory(q.String(), federation.FeatureDim, federation.Metrics)
	} else if h, err = core.NewHistory(federation.FeatureDim, federation.Metrics...); err == nil {
		h.SetRetain(s.retain)
	}
	if err != nil {
		return nil, fmt.Errorf("ires: opening history for %v: %w", q, err)
	}
	s.histories[q] = h
	return h, nil
}

// History returns the execution history of a query, or nil when nothing
// has opened it yet (OpenHistory, and through it Bootstrap, the sweeps
// and DecideFromSweep). A pure lookup: it never creates a history and
// never touches the store, so a read cannot turn a shard this scheduler
// does not own — a standby's replica — into a live one.
func (s *Scheduler) History(q tpch.QueryID) *core.History {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	return s.histories[q]
}

// Checkpoint is a durability point: every observation recorded so far
// is fsynced through the attached store; without one it is a no-op. It
// is safe to call while requests append concurrently.
func (s *Scheduler) Checkpoint() error {
	if s.store == nil {
		return nil
	}
	if err := s.store.Sync(); err != nil {
		return fmt.Errorf("ires: checkpointing: %w", err)
	}
	return nil
}

// DropHistories detaches every history opened so far from its durable
// sink and forgets it. The serving layer calls this when a tenant is
// handed off to another node: the local copies stop persisting (the new
// owner's appends are the live log now), and a later handoff back
// reopens fresh histories from whatever state is re-imported. The plan
// and feature caches are untouched — they depend only on the query
// space, not the histories.
func (s *Scheduler) DropHistories() {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	for q, h := range s.histories {
		h.SetSink(nil)
		delete(s.histories, q)
	}
}

// lattice returns q's QEP lattice through planCache.
func (s *Scheduler) lattice(q tpch.QueryID) (*federation.PlanLattice, error) {
	s.planMu.RLock()
	lat, ok := s.planCache[q]
	s.planMu.RUnlock()
	if ok {
		return lat, nil
	}
	lat, err := s.fed.PlanLattice(q, s.nodeChoices)
	if err != nil {
		return nil, err
	}
	s.planMu.Lock()
	if s.planCache == nil {
		s.planCache = make(map[tpch.QueryID]*federation.PlanLattice)
	}
	s.planCache[q] = lat
	s.planMu.Unlock()
	return lat, nil
}

// features returns p's estimation feature vector through featCache.
func (s *Scheduler) features(p federation.Plan) ([]float64, error) {
	s.featMu.RLock()
	x, ok := s.featCache[p]
	s.featMu.RUnlock()
	if ok {
		return x, nil
	}
	x, err := s.exec.Features(p)
	if err != nil {
		return nil, err
	}
	s.featMu.Lock()
	if s.featCache == nil {
		s.featCache = make(map[federation.Plan][]float64)
	}
	s.featCache[p] = x
	s.featMu.Unlock()
	return x, nil
}

// record appends one completed execution to the query's history.
func (s *Scheduler) record(q tpch.QueryID, x []float64, costs []float64) error {
	h, err := s.OpenHistory(q)
	if err != nil {
		return err
	}
	return h.Append(core.Observation{X: x, Costs: costs})
}

// Bootstrap executes n randomly chosen plans of q to seed the history,
// the warm-up IReS performs before its models are usable.
func (s *Scheduler) Bootstrap(q tpch.QueryID, n int) error {
	// Surface durable-state errors before paying for any execution.
	if _, err := s.OpenHistory(q); err != nil {
		return err
	}
	lat, err := s.lattice(q)
	if err != nil {
		return err
	}
	// A lattice is never empty: PlanLattice refuses a site without a
	// feasible size.
	b := stats.NewBound(lat.Size())
	for i := 0; i < n; i++ {
		p := lat.At(s.rng.Below(b))
		out, err := s.exec.Execute(p)
		if err != nil {
			return err
		}
		x, err := s.features(p)
		if err != nil {
			return err
		}
		if err := s.record(q, x, out.Costs()); err != nil {
			return err
		}
	}
	return nil
}

// Decision reports one scheduling round.
type Decision struct {
	Plan federation.Plan
	// Estimated is the model-predicted cost vector of the chosen plan, a
	// copy: it outlives ReleaseSweep.
	Estimated []float64
	Outcome   *federation.Outcome
	// ParetoSize is the size of the Pareto plan set the choice was made
	// from; PlanSpace the number of QEPs the sweep reduced to it — the
	// whole lattice.
	ParetoSize, PlanSpace int
}

// Submit runs one full pipeline round for query q: enumerate QEPs,
// estimate each with the Modelling module, reduce to the Pareto set,
// select under the policy (Algorithm 2), execute the winner and
// feed the measurement back into history.
func (s *Scheduler) Submit(q tpch.QueryID, pol Policy) (*Decision, error) {
	return s.SubmitContext(context.Background(), q, pol)
}

// SubmitContext is Submit with cancellation: the estimation sweep
// (the expensive step over tens of thousands of equivalent QEPs)
// observes ctx and aborts early when it is cancelled.
func (s *Scheduler) SubmitContext(ctx context.Context, q tpch.QueryID, pol Policy) (*Decision, error) {
	sw, err := s.PlanSweep(ctx, q)
	if err != nil {
		return nil, err
	}
	defer s.ReleaseSweep(sw)
	return s.DecideFromSweep(sw, pol)
}

// Sweep is the policy-independent half of a scheduling round: the plan
// lattice, the estimated cost vectors the Pareto reduction needed, and
// that reduction. A Sweep is immutable once built
// until ReleaseSweep, which ends it: the header, the matrix and the
// front all belong to a later sweep then, and only the Decisions made
// from it outlive it. Any number of policies can be applied to it
// concurrently before that — this is the admission hook a serving layer
// batches on, since concurrent submissions of the same query can share
// one sweep and differ only in selection.
type Sweep struct {
	Query tpch.QueryID
	// Lattice is the plan space the sweep reduced, read by position:
	// plan i is Lattice.At(i), and Lattice.Size() plans were decided
	// over. A sweep built by hand may leave it nil.
	Lattice *federation.PlanLattice
	// Costs is the model cost vector of every plan, row i plan i's — one
	// flat plans × metrics matrix, read through Costs.Row — exactly when
	// the sweep scored every plan: on the per-plan route, and on the
	// linear route unless its rows were ordered. A linear sweep that
	// read its front from the rows' ends scored only those, and leaves
	// Costs empty; AllCosts has every plan's vector either way.
	Costs moo.CostMatrix
	// FrontIdx holds the lattice positions of the Pareto-optimal plans.
	FrontIdx []int
	// FrontCosts and Normalized are the Pareto set's raw cost vectors,
	// row j plan FrontIdx[j]'s, and their min-max rescaling
	// (constraints check raw values, the weighted sum compares
	// normalized ones).
	FrontCosts, Normalized moo.CostMatrix

	// buf is the pooled round storage the sweep lives in; nil once
	// released, and for a sweep built by hand.
	buf *sweepBuf
}

// PlanSweep builds the QEP lattice of q, estimates its plans against
// one history snapshot, and reduces them to the Pareto set: every plan,
// or, on the linear route when the lattice's rows are ordered, only the
// rows' ends the front can come from. It observes ctx before the
// linear route's one fit lookup, and the per-plan route between chunks
// of at most 256 plans. The sweep — header, cost matrix
// and front — lives in storage from a pool: ReleaseSweep hands it back
// once the sweep has served its decisions.
func (s *Scheduler) PlanSweep(ctx context.Context, q tpch.QueryID) (sw *Sweep, err error) {
	candidates := 0
	if s.obs != nil {
		began := time.Now()
		defer func() {
			plans := 0
			if sw != nil {
				plans = sw.Lattice.Size()
			}
			s.observeSweep(q, began, plans, candidates, err)
		}()
	}
	h, err := s.OpenHistory(q)
	if err != nil {
		return nil, err
	}
	if h.Len() == 0 {
		return nil, fmt.Errorf("%w: %v (run Bootstrap first)", ErrNoHistory, q)
	}
	lat, err := s.lattice(q)
	if err != nil {
		return nil, err
	}
	buf := sweepPool.Get().(*sweepBuf)
	ps := s.sweeper(q, h, lat, buf)
	costs, at, err := ps.sweep(ctx)
	if err != nil {
		buf.release()
		return nil, err
	}
	buf.frontIdx = buf.stairs.ParetoFrontInto(buf.frontIdx, costs)
	candidates = costs.Len()
	raw, normalized := buf.frontRows(costs)
	if at != nil {
		// costs holds the candidates alone: index the front by plan.
		for j, c := range buf.frontIdx {
			buf.frontIdx[j] = at[c]
		}
		costs = moo.CostMatrix{}
	}
	buf.sw = Sweep{
		Query:      q,
		Lattice:    lat,
		Costs:      costs,
		FrontIdx:   buf.frontIdx,
		FrontCosts: raw,
		Normalized: normalized,
		buf:        buf,
	}
	return &buf.sw, nil
}

// AllCosts is every plan's model cost vector, row i plan i's. It is
// Costs when the sweep scored every plan; otherwise a new matrix that
// walkLinearCosts, the kernel of the linear route, scores from the
// sweep's own fit of its snapshot — bit for bit what a sweep scoring
// every plan gives. Like Costs it must not be called after
// ReleaseSweep; it is safe to call concurrently.
func (sw *Sweep) AllCosts() moo.CostMatrix {
	if sw.buf == nil || sw.Costs.Len() == sw.Lattice.Size() {
		return sw.Costs
	}
	ps := &sw.buf.ps
	return ps.walkAll(make([]float64, sw.Lattice.Size()*len(ps.fit)))
}

// frontRows copies the rows of costs at b.frontIdx into b.front, and
// their min-max rescaling after them: normalized so seconds and dollars
// are comparable before the weighted sum (Algorithm 2's WeightSum over
// user policy).
func (b *sweepBuf) frontRows(costs moo.CostMatrix) (raw, normalized moo.CostMatrix) {
	if len(b.frontIdx) == 0 {
		return moo.CostMatrix{}, moo.CostMatrix{}
	}
	k := len(costs.Row(0))
	n := len(b.frontIdx) * k
	b.front = slices.Grow(b.front[:0], 2*n)[:n]
	for i, at := range b.frontIdx {
		copy(b.front[i*k:], costs.Row(at))
	}
	raw, _ = moo.FlatCostMatrix(b.front, k) // whole rows of k ≥ 1: no error
	return raw, moo.NormalizeCosts(b.front[n:n], raw)
}

// ReleaseSweep ends sw: its header, cost matrix and front go back to
// the pool for a later sweep to reuse. Every Decision made from sw stays
// valid; sw itself and every view read from it — Costs, FrontIdx,
// FrontCosts, Normalized — are memory the next sweep overwrites, and
// must not be used again, not even by a second ReleaseSweep. Call it
// once, after the last reader of sw is done. Never calling it is also
// correct: the storage is then collected with the sweep. A sweep built
// by hand has nothing to release.
func (s *Scheduler) ReleaseSweep(sw *Sweep) {
	if sw == nil || sw.buf == nil {
		return
	}
	buf := sw.buf
	*sw = Sweep{}
	buf.release()
}

// Select applies a policy to the sweep's Pareto set and returns the
// chosen plan's FrontIdx entry — on a PlanSweep its lattice position i,
// the plan sw.Lattice.At(i). It does not execute anything and is safe to
// call concurrently.
func (sw *Sweep) Select(pol Policy) (int, error) {
	best, err := selectFromParetoSet(sw.FrontCosts, sw.Normalized, pol)
	if err != nil {
		return 0, err
	}
	return sw.FrontIdx[best], nil
}

// decision is a Decision allocated together with room for its estimate:
// a vector of the served shape's metrics needs no allocation of its own.
type decision struct {
	Decision
	estimated [core.InlineMetrics]float64
}

// DecideFromSweep finishes a scheduling round on a previously computed
// sweep: select under the policy, execute the winner, record the
// measurement. Multiple goroutines may decide from one shared sweep.
func (s *Scheduler) DecideFromSweep(sw *Sweep, pol Policy) (*Decision, error) {
	best, err := selectFromParetoSet(sw.FrontCosts, sw.Normalized, pol)
	if err != nil {
		return nil, err
	}
	chosen := sw.Lattice.At(sw.FrontIdx[best])
	out, err := s.exec.Execute(chosen)
	if err != nil {
		return nil, err
	}
	x, err := s.features(chosen)
	if err != nil {
		return nil, err
	}
	if err := s.record(sw.Query, x, out.Costs()); err != nil {
		return nil, err
	}
	d := &decision{Decision: Decision{
		Plan:       chosen,
		Outcome:    out,
		ParetoSize: len(sw.FrontIdx),
		PlanSpace:  sw.Lattice.Size(),
	}}
	d.Estimated = append(d.estimated[:0], sw.FrontCosts.Row(best)...)
	return &d.Decision, nil
}

// bestWithConstraints applies Algorithm 2 with constraints evaluated on
// the raw costs but the weighted sum computed on normalized costs.
func bestWithConstraints(raw, normalized moo.CostMatrix, weights, constraints []float64) (int, error) {
	return moo.ArgminWeightedSumWhere(normalized, weights,
		func(i int) bool { return moo.WithinBounds(raw.Row(i), constraints) })
}

// Default policy fallbacks, hoisted to package level so an empty
// policy does not allocate them per selection.
var (
	defaultWeights  = []float64{1, 1}
	defaultLexOrder = []int{0, 1}
)

// selectFromParetoSet dispatches on the policy's selection strategy.
// raw carries the model's cost vectors, normalized their min-max
// rescaling across the set.
func selectFromParetoSet(raw, normalized moo.CostMatrix, pol Policy) (int, error) {
	switch pol.Strategy {
	case KneeSelection:
		return moo.KneePoint(raw)
	case LexicographicSelection:
		order := pol.LexOrder
		if len(order) == 0 {
			order = defaultLexOrder
		}
		tol := pol.LexTolerance
		if tol == 0 {
			tol = 0.05
		}
		return moo.Lexicographic(raw, order, tol)
	default:
		weights := pol.Weights
		if len(weights) == 0 {
			weights = defaultWeights
		}
		return bestWithConstraints(raw, normalized, weights, pol.Constraints)
	}
}
