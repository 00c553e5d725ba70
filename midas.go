// Package midas is the public API of this reproduction of "Dynamic
// estimation for medical data management in a cloud federation"
// (Le, Kantere, d'Orazio — DARLI-AP @ EDBT/ICDT 2019).
//
// The package re-exports the user-facing surface of the internal
// packages as one coherent API:
//
//   - DREAM (the paper's contribution): multi-metric cost estimation
//     over a dynamic window of recent execution history (Algorithm 1).
//   - The MIDAS federation: sites pairing cloud providers with database
//     engines, a TPC-H catalog split across them, QEP enumeration, and
//     executors that measure plan cost under drifting cloud load.
//   - The IReS-style scheduler: Modelling (DREAM or Best-ML baselines),
//     Multi-Objective Optimization (NSGA-II / NSGA-G / WSM), and
//     BestInPareto plan selection (Algorithm 2).
//   - The evaluation harness regenerating the paper's Tables 1–4,
//     Figure 3 and Example 3.1.
//
// # Quick start
//
//	fed, _ := midas.NewDefaultFederation(42)
//	cal, _ := midas.Calibrate(fed, 0.004, 42)
//	exec, _ := midas.NewScaledExecutor(fed, cal, 0.1) // ≈100 MiB TPC-H
//	model, _ := midas.NewDREAMModel(midas.DREAMConfig{})
//	sched, _ := midas.NewScheduler(fed, exec, model, nil, 42)
//	_ = sched.Bootstrap(midas.QueryQ12, 20)
//	dec, _ := sched.Submit(midas.QueryQ12, midas.Policy{Weights: []float64{1, 1}})
//	fmt.Printf("picked %v: est %v, actual %.1fs / $%.4f\n",
//		dec.Plan, dec.Estimated, dec.Outcome.TimeS, dec.Outcome.MoneyUSD)
//
// See examples/ for complete programs and DESIGN.md for the system
// inventory.
package midas

import (
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/histstore"
	"repro/internal/ires"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/moo"
	"repro/internal/regression"
	"repro/internal/server"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// DREAM (paper Section 3, Algorithm 1)

// DREAMConfig parameterizes the DREAM estimator; see core.Config.
type DREAMConfig = core.Config

// DREAMEstimator runs Algorithm 1 over an execution History.
type DREAMEstimator = core.Estimator

// History is an append-only log of plan executions (features + costs).
// Safe for concurrent appenders and readers.
type History = core.History

// HistorySnapshot is an immutable point-in-time view of a History;
// concurrent estimation rounds score every plan against one snapshot.
type HistorySnapshot = core.Snapshot

// Observation is one execution record.
type Observation = core.Observation

// DefaultRequiredR2 is the paper's R²require = 0.8.
const DefaultRequiredR2 = core.DefaultRequiredR2

// DefaultModelCacheSize bounds the estimator's per-(history, version)
// model cache: the window search of Algorithm 1 is independent of the
// plan being estimated, so one fit serves every QEP of a scheduling
// round. Set DREAMConfig.CacheSize to tune (negative disables).
const DefaultModelCacheSize = core.DefaultCacheSize

// NewDREAMEstimator validates a config and returns a DREAM estimator.
func NewDREAMEstimator(cfg DREAMConfig) (*DREAMEstimator, error) {
	return core.NewEstimator(cfg)
}

// NewHistory creates an execution history for the given feature
// dimension and metric names.
func NewHistory(dim int, metrics ...string) (*History, error) {
	return core.NewHistory(dim, metrics...)
}

// SaveSnapshot and LoadHistory are the snapshot codec: a versioned JSON
// document of a whole history, the same one a DurableHistoryStore keeps
// as each shard's snapshot.json. On its own such a file has no
// durability for later appends; keep live histories in a store.
var (
	SaveSnapshot = core.SaveSnapshot
	LoadHistory  = core.LoadHistory
)

// ---------------------------------------------------------------------------
// Durable history store (one WAL per history)

type (
	// HistoryStore is the scheduler's durable-history seam: set
	// SchedulerConfig.Store (or ServerConfig.Store for midasd-style
	// serving) and query histories are recovered from it on first
	// touch and persisted through it on every recorded execution.
	HistoryStore = ires.HistoryStore
	// DurableHistoryStore implements HistoryStore on disk: one shard
	// per history holding a CRC-framed append-only WAL, with
	// deterministic, torn-tail-tolerant crash recovery. See
	// internal/histstore.
	DurableHistoryStore = histstore.Store
	// HistoryStoreOptions tunes a DurableHistoryStore (WAL fsync).
	HistoryStoreOptions = histstore.Options
)

// OpenHistoryStore opens (creating the directory if needed) a durable
// history store rooted at dir. Histories opened through the store are
// recovered from its WAL and warm-start any scheduler they are wired
// into.
func OpenHistoryStore(dir string, opts HistoryStoreOptions) (*DurableHistoryStore, error) {
	return histstore.Open(dir, opts)
}

// ---------------------------------------------------------------------------
// Observability (metrics + structured logs)

// MetricsRegistry is a zero-dependency, concurrency-safe metrics
// registry (counters, gauges, fixed-bucket histograms with
// p50/p90/p99 extraction) that renders the Prometheus text format.
// Every layer of the serving stack publishes into one: set
// ServerConfig.Metrics (or SchedulerConfig.Metrics +
// MetricsFederation for a bare scheduler, HistoryStoreOptions.Metrics
// for a bare store) and scrape it via Registry.Handler — which is
// what midasd serves at GET /metrics. Instrumentation is
// observation-only: metered and unmetered runs make byte-identical
// decisions.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// ---------------------------------------------------------------------------
// Regression and baseline learners

// Sample pairs a feature vector with an observed cost.
type Sample = regression.Sample

// MLRModel is a fitted Multiple Linear Regression model (paper §2.5).
type MLRModel = regression.Model

// FitMLR solves the normal equations B = (AᵀA)⁻¹AᵀC over the samples.
func FitMLR(samples []Sample) (*MLRModel, error) {
	return regression.Fit(samples, regression.FitOptions{})
}

// Learner trains single-metric cost predictors (Best-ML candidates).
type Learner = ml.Learner

// The IReS Modelling learners named in the paper, plus the robust
// regressor from its Rousseeuw & Leroy reference.
type (
	// LeastSquares is ordinary least-squares MLR.
	LeastSquares = ml.LeastSquares
	// Bagging aggregates bootstrap-trained base models.
	Bagging = ml.Bagging
	// MLP is a single-hidden-layer perceptron.
	MLP = ml.MLP
	// BML cross-validates the candidates and keeps the best.
	BML = ml.BML
	// Huber is an IRLS robust regressor (down-weights latency spikes).
	Huber = ml.Huber
)

// ---------------------------------------------------------------------------
// Multi-objective optimization (paper §2.3, §3, Algorithm 2)

// Problem is a continuous multi-objective minimization problem.
type Problem = moo.Problem

// NSGAIIConfig tunes the genetic optimizers.
type NSGAIIConfig = moo.NSGAIIConfig

// NSGAII runs the Non-dominated Sorting Genetic Algorithm II.
func NSGAII(p Problem, cfg NSGAIIConfig) (*moo.Result, error) { return moo.NSGAII(p, cfg) }

// KneePoint selects the knee of a two-objective Pareto set — a
// weight-free selection strategy (paper future work).
func KneePoint(costs [][]float64) (int, error) { return moo.KneePoint(costs) }

// Lexicographic selects by objective priority with tolerance bands.
func Lexicographic(costs [][]float64, order []int, tolerance float64) (int, error) {
	return moo.Lexicographic(costs, order, tolerance)
}

// ParetoFront returns the indices, ascending, of the non-dominated cost
// vectors; rows of differing or zero length are an error.
func ParetoFront(costs [][]float64) ([]int, error) {
	m, err := moo.NewCostMatrix(costs)
	if err != nil {
		return nil, err
	}
	return moo.ParetoFront(m)
}

// BestInPareto implements the paper's Algorithm 2.
func BestInPareto(costs [][]float64, weights, constraints []float64) (int, error) {
	return moo.BestInPareto(costs, weights, constraints)
}

// WeightedSum scalarizes a cost vector with normalized weights.
func WeightedSum(costs, weights []float64) (float64, error) {
	return moo.WeightedSum(costs, weights)
}

// ---------------------------------------------------------------------------
// Cloud federation substrate

// Provider is one cloud vendor's catalog — instance types, storage and
// egress pricing: the pay-as-you-go substrate of the paper's Table 1.
type Provider = cloud.Provider

// Provider catalogs from the paper's Table 1 (plus Google for the
// architecture figure's three-cloud setup).
var (
	Amazon    = cloud.Amazon
	Microsoft = cloud.Microsoft
	Google    = cloud.Google
)

// The engines of the paper's Figure 1.
var (
	HiveProfile     = engine.Hive
	PostgresProfile = engine.Postgres
	SparkProfile    = engine.Spark
)

// ---------------------------------------------------------------------------
// Federation, plans, executors

type (
	// Federation is the MIDAS topology (sites, catalog, links).
	Federation = federation.Federation
	// Plan is one equivalent QEP of a two-table query.
	Plan = federation.Plan
	// Outcome is the measured cost of one execution.
	Outcome = federation.Outcome
	// Executor runs plans (FullExecutor or ScaledExecutor).
	Executor = federation.Executor
	// FullExecutor executes relational plans over generated data.
	FullExecutor = federation.FullExecutor
	// ScaledExecutor replays calibrated statistics at any data scale.
	ScaledExecutor = federation.ScaledExecutor
	// Calibration holds per-query operator statistics per unit SF.
	Calibration = federation.Calibration
)

// NodeRange returns the dense menu {1, 2, …, n} — the knob that grows
// the QEP lattice toward the paper's Example 3.1 regime.
func NodeRange(n int) []int { return federation.NodeRange(n) }

// Metrics are the cost objectives (time_s, money_usd).
var Metrics = federation.Metrics

// FeatureDim is the plan feature dimension (paper Example 2.1 features
// plus the join-placement indicator).
const FeatureDim = federation.FeatureDim

// NewDefaultFederation reproduces the paper's two-site Hive+PostgreSQL
// deployment across Amazon and Microsoft.
func NewDefaultFederation(seed int64) (*Federation, error) {
	return federation.DefaultTopology(seed)
}

// NewThreeCloudFederation adds a Spark-on-Google site, realizing the
// three-provider architecture of the paper's Figure 1.
func NewThreeCloudFederation(seed int64) (*Federation, error) {
	return federation.ThreeCloudTopology(seed)
}

// NewFlakyExecutor wraps an executor with deterministic transient
// failures, for chaos testing.
func NewFlakyExecutor(inner Executor, failureProb float64, seed int64) (*federation.FlakyExecutor, error) {
	return federation.NewFlakyExecutor(inner, failureProb, seed)
}

// NewRetryingExecutor wraps an executor with retry-on-transient
// behaviour.
func NewRetryingExecutor(inner Executor, maxRetries int) (*federation.RetryingExecutor, error) {
	return federation.NewRetryingExecutor(inner, maxRetries)
}

// NewFullExecutor runs plans for real over a generated database.
func NewFullExecutor(fed *Federation, db *tpch.Database) *FullExecutor {
	return federation.NewFullExecutor(fed, db)
}

// Calibrate measures per-query operator statistics at a small scale.
func Calibrate(fed *Federation, calibSF float64, seed int64) (*Calibration, error) {
	return federation.Calibrate(fed, calibSF, seed)
}

// NewScaledExecutor replays calibrated statistics at scale sf.
func NewScaledExecutor(fed *Federation, cal *Calibration, sf float64) (*ScaledExecutor, error) {
	return federation.NewScaledExecutor(fed, cal, sf)
}

// ---------------------------------------------------------------------------
// TPC-H

// Database is a generated TPC-H population.
type Database = tpch.Database

// QueryID names the studied queries (Q12, Q13, Q14, Q17).
type QueryID = tpch.QueryID

// The paper's evaluation queries.
const (
	QueryQ12 = tpch.QueryQ12
	QueryQ13 = tpch.QueryQ13
	QueryQ14 = tpch.QueryQ14
	QueryQ17 = tpch.QueryQ17
)

// AllQueries lists the evaluation queries in paper order.
var AllQueries = tpch.AllQueries

// GenerateTPCH builds a deterministic TPC-H population; SF 1 ≈ 1 GB.
func GenerateTPCH(sf float64, seed int64) (*Database, error) {
	return tpch.Generate(sf, tpch.GenOptions{Seed: seed})
}

// ---------------------------------------------------------------------------
// IReS scheduler pipeline

type (
	// Scheduler is the MIDAS/IReS pipeline instance.
	Scheduler = ires.Scheduler
	// CostModel is the Modelling module contract.
	CostModel = ires.CostModel
	// DREAMModel adapts DREAM to the Modelling contract.
	DREAMModel = ires.DREAMModel
	// Policy is the user query policy (weights + constraints).
	Policy = ires.Policy
	// Decision reports one scheduling round.
	Decision = ires.Decision
	// SchedulerConfig adds the durability knob: Store injects a durable
	// HistoryStore the scheduler recovers from and records through.
	// Decisions are byte-identical cached or uncached (the model cache
	// is DREAMConfig.CacheSize), at any GOMAXPROCS and any request
	// concurrency, including across a store-backed restart.
	SchedulerConfig = ires.SchedulerConfig
	// PrunePolicy decides which QEPs of the lattice a sweep actually
	// estimates. Set SchedulerConfig.Prune; nil sweeps the whole
	// lattice, the paper's behavior. The interface is closed — GreedyPrune
	// below is the constructor.
	PrunePolicy = ires.PrunePolicy
)

// GreedyPrune estimates at most budget plans (0 = a size-derived
// default): a coarse lattice scaffold followed by a cost-ordered walk
// around the running Pareto front that stops early once a whole chunk
// of candidates is dominated. Deterministic for a fixed history.
func GreedyPrune(budget int) PrunePolicy { return ires.GreedyPrune(budget) }

// NewDREAMModel builds a DREAM Modelling module.
func NewDREAMModel(cfg DREAMConfig) (*DREAMModel, error) { return ires.NewDREAMModel(cfg) }

// NewScheduler assembles the pipeline.
func NewScheduler(fed *Federation, exec Executor, model CostModel, nodeChoices []int, seed int64) (*Scheduler, error) {
	return ires.NewScheduler(fed, exec, model, nodeChoices, seed)
}

// NewSchedulerWithConfig assembles the pipeline from a
// SchedulerConfig (model cache, prune policy, durable store, metrics).
func NewSchedulerWithConfig(fed *Federation, exec Executor, model CostModel, cfg SchedulerConfig) (*Scheduler, error) {
	return ires.NewSchedulerWithConfig(fed, exec, model, cfg)
}

// ---------------------------------------------------------------------------
// Serving layer

type (
	// Sweep is the policy-independent half of a scheduling round (see
	// Scheduler.PlanSweep / DecideFromSweep): a serving layer shares one
	// across concurrent submissions of a query. Its Costs are one flat
	// matrix, plan i's vector at Costs.Row(i), that
	// Scheduler.ReleaseSweep hands back for reuse.
	Sweep = ires.Sweep
	// QueryServer hosts named federations behind the HTTP/JSON API
	// (POST /v1/queries, GET /v1/history/{query}, /v1/stats, /healthz)
	// with bounded admission, same-query sweep batching and graceful
	// drain. cmd/midasd is the standalone daemon.
	QueryServer = server.Server
	// ServerConfig assembles a QueryServer.
	ServerConfig = server.Config
	// ServerFederationSpec declares one hosted federation.
	ServerFederationSpec = server.FederationSpec
	// LoadConfig parameterizes one load-generation run against a
	// serving instance.
	LoadConfig = workload.LoadConfig
	// LoadReport summarizes a load run: QPS, latency percentiles,
	// per-status counts.
	LoadReport = workload.LoadReport
)

// NewQueryServer builds the configured federations (calibration +
// bootstrap; the slow part) and returns a ready server.
func NewQueryServer(cfg ServerConfig) (*QueryServer, error) { return server.New(cfg) }

// RunLoad drives N concurrent closed-loop clients, or an open-loop event
// schedule, against a serving instance and reports QPS and percentiles.
var RunLoad = workload.RunLoad

// ---------------------------------------------------------------------------
// Evaluation harness

type (
	// EvalConfig parameterizes one MRE evaluation run.
	EvalConfig = workload.EvalConfig
	// EvalHarness owns the federation and calibration of a campaign.
	EvalHarness = workload.Harness
	// ModelSpec names one model under evaluation.
	ModelSpec = workload.ModelSpec
)

// NewEvalHarness builds an evaluation harness on the default topology.
func NewEvalHarness(seed int64) (*EvalHarness, error) { return workload.NewHarness(seed) }

// PaperModels returns the five Modelling configurations of Tables 3/4.
func PaperModels(seed int64) ([]ModelSpec, error) { return workload.PaperModels(seed) }
