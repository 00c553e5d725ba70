package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/histstore"
	"repro/internal/ires"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/tpch"
)

// QueryScheduler is the slice of ires.Scheduler the serving layer
// drives. Narrowing to an interface keeps the admission/batching
// machinery testable against stub schedulers with controllable latency.
type QueryScheduler interface {
	// PlanSweep runs the policy-independent half of a round (enumerate,
	// estimate, Pareto-reduce); the result is shared across coalesced
	// submissions.
	PlanSweep(ctx context.Context, q tpch.QueryID) (*ires.Sweep, error)
	// DecideFromSweep selects under one request's policy, executes the
	// winner and records the outcome.
	DecideFromSweep(sw *ires.Sweep, pol ires.Policy) (*ires.Decision, error)
	// History exposes the query's execution log for /v1/history; nil
	// when the scheduler holds none (a tenant another node owns). It
	// must not create or open one.
	History(q tpch.QueryID) *core.History
}

var _ QueryScheduler = (*ires.Scheduler)(nil)

// FederationSpec declares one hosted federation: which topology to
// build, at what simulated data scale, and how to assemble its
// scheduler. The zero value of every optional field takes a documented
// default, so {"name":"main"} is a complete spec.
type FederationSpec struct {
	// Name keys the tenant in the API ("federation" request field).
	Name string `json:"name"`
	// Topology is "default" (the paper's two-site Hive+PostgreSQL
	// deployment, the default) or "threecloud" (adds Spark-on-Google).
	Topology string `json:"topology,omitempty"`
	// Seed drives every stochastic component of the tenant.
	Seed int64 `json:"seed,omitempty"`
	// SF is the simulated data scale (default 0.1 ≈ 100 MiB).
	SF float64 `json:"sf,omitempty"`
	// CalibSF is the calibration scale (default 0.004).
	CalibSF float64 `json:"calib_sf,omitempty"`
	// NodeChoices is the cluster-size menu (default {1, 2, 4}).
	NodeChoices []int `json:"node_choices,omitempty"`
	// CacheSize tunes the Modelling module's model cache (0 = default).
	CacheSize int `json:"cache_size,omitempty"`
	// PrunePolicy selects which QEPs of the lattice each sweep
	// estimates: "full" (every plan — the default and the paper's
	// behavior), "greedy" (cost-ordered lattice walk with early
	// termination), or "topk" (deterministic uniform sample).
	PrunePolicy string `json:"prune_policy,omitempty"`
	// PruneBudget caps the plans estimated per sweep for "greedy" and
	// "topk" (0 = policy default; rejected for "full").
	PruneBudget int `json:"prune_budget,omitempty"`
	// Bootstrap seeds each query's history with this many random
	// executions before serving (default 20).
	Bootstrap int `json:"bootstrap,omitempty"`
	// Queries restricts which queries the tenant serves (default: all
	// four studied queries).
	Queries []string `json:"queries,omitempty"`
	// Chaos names a fault-injection profile ("none", "outages",
	// "stragglers", "price-spikes", "autoscale", "mixed") applied to the
	// tenant's cloud after boot: bootstrap trains on the well-behaved
	// cloud, serving weathers the faults. Empty means none.
	Chaos string `json:"chaos,omitempty"`
	// ChaosSeed seeds the fault schedule (default: Seed), so a chaosed
	// deployment is as replayable as a clean one.
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
}

func (sp *FederationSpec) withDefaults() FederationSpec {
	out := *sp
	if out.Topology == "" {
		out.Topology = "default"
	}
	if out.Seed == 0 {
		out.Seed = 42
	}
	if out.SF == 0 {
		out.SF = 0.1
	}
	if out.CalibSF == 0 {
		out.CalibSF = 0.004
	}
	if len(out.NodeChoices) == 0 {
		out.NodeChoices = []int{1, 2, 4}
	}
	if out.Bootstrap == 0 {
		out.Bootstrap = 20
	}
	return out
}

// queries resolves the spec's query names.
func (sp *FederationSpec) queries() ([]tpch.QueryID, error) {
	if len(sp.Queries) == 0 {
		return append([]tpch.QueryID(nil), tpch.AllQueries...), nil
	}
	out := make([]tpch.QueryID, 0, len(sp.Queries))
	for _, name := range sp.Queries {
		q, err := tpch.ParseQueryID(name)
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// dreamMMax caps Algorithm 1's window for every hosted tenant at three
// times the statistical minimum L+2: no estimate reads further back.
const dreamMMax = 3 * (federation.FeatureDim + 2)

// calibrations remembers, for the length of one New, the calibration of
// each (CalibSF, Seed) already paid for. Calibrating generates a TPC-H
// database and runs the four queries over it — nearly all of a tenant
// build — and reads nothing of the topology, so every tenant sharing the
// pair shares the result, which is read-only once built.
type calibrations map[calibKey]*federation.Calibration

type calibKey struct {
	sf   float64
	seed int64
}

// buildTenant assembles the spec's scheduler: topology, calibration,
// scaled executor, DREAM model, and — with a store configured — the
// tenant's durable history root. Every served query is then opened
// (recovering whatever the store holds) and bootstrapped only up to
// the shortfall: a warm-started tenant whose recovered history already
// meets the bootstrap target executes nothing before serving.
//
// cold builds the tenant without opening or bootstrapping histories —
// the shape of a cluster node that does not own the federation. The
// scheduler assembly itself is deterministic (same spec, same seed →
// same topology, calibration and models on every node), so a cold
// tenant activated later by a handoff or takeover decides exactly as a
// warm-built one would. mirror, when non-nil, receives every WAL
// append of the tenant's store (cluster replication). calibs, when
// non-nil, is consulted before calibrating and remembers the result.
func buildTenant(spec FederationSpec, storeCfg StoreConfig, reg *metrics.Registry, cold bool, mirror histstore.Mirror, calibs calibrations) (*tenant, error) {
	sp := spec.withDefaults()
	if sp.Name == "" {
		return nil, fmt.Errorf("server: federation spec without a name")
	}
	queries, err := sp.queries()
	if err != nil {
		return nil, fmt.Errorf("server: federation %q: %w", sp.Name, err)
	}
	// Parse the prune policy before the expensive topology/calibration
	// work so a misconfigured spec fails the boot immediately.
	pruner, err := ires.ParsePrunePolicy(sp.PrunePolicy, sp.PruneBudget)
	if err != nil {
		return nil, fmt.Errorf("server: federation %q: %w", sp.Name, err)
	}
	chaosProfile, err := cloud.ParseChaosProfile(sp.Chaos)
	if err != nil {
		return nil, fmt.Errorf("server: federation %q: %w", sp.Name, err)
	}
	var fed *federation.Federation
	switch sp.Topology {
	case "default":
		fed, err = federation.DefaultTopology(sp.Seed)
	case "threecloud":
		fed, err = federation.ThreeCloudTopology(sp.Seed)
	default:
		err = fmt.Errorf("unknown topology %q (default, threecloud)", sp.Topology)
	}
	if err != nil {
		return nil, fmt.Errorf("server: federation %q: %w", sp.Name, err)
	}
	key := calibKey{sp.CalibSF, sp.Seed}
	cal := calibs[key]
	if cal == nil {
		cal, err = federation.Calibrate(fed, sp.CalibSF, sp.Seed)
		if err != nil {
			return nil, fmt.Errorf("server: federation %q: calibrate: %w", sp.Name, err)
		}
		if calibs != nil {
			calibs[key] = cal
		}
	}
	exec, err := federation.NewScaledExecutor(fed, cal, sp.SF)
	if err != nil {
		return nil, fmt.Errorf("server: federation %q: %w", sp.Name, err)
	}
	model, err := ires.NewDREAMModel(core.Config{MMax: dreamMMax})
	if err != nil {
		return nil, fmt.Errorf("server: federation %q: %w", sp.Name, err)
	}
	schedCfg := ires.SchedulerConfig{
		NodeChoices:       sp.NodeChoices,
		Seed:              sp.Seed,
		CacheSize:         sp.CacheSize,
		Prune:             pruner,
		Retain:            historyRetain,
		Metrics:           reg,
		MetricsFederation: sp.Name,
	}
	var store *histstore.Store
	if storeCfg.Dir != "" {
		// One store root per tenant; the name is path-escaped so any
		// federation name is a single safe directory element.
		root := filepath.Join(storeCfg.Dir, url.PathEscape(sp.Name))
		store, err = histstore.Open(root, histstore.Options{
			Fsync:        storeCfg.Fsync,
			GroupCommit:  storeCfg.GroupCommit,
			Retain:       historyRetain,
			Mirror:       mirror,
			Metrics:      reg,
			MetricsStore: sp.Name,
		})
		if err != nil {
			return nil, fmt.Errorf("server: federation %q: opening history store: %w", sp.Name, err)
		}
		schedCfg.Store = store
	}
	// From here on a failed build must release the store's WAL handles.
	fail := func(err error) (*tenant, error) {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	sched, err := ires.NewSchedulerWithConfig(fed, exec, model, schedCfg)
	if err != nil {
		return fail(fmt.Errorf("server: federation %q: %w", sp.Name, err))
	}
	if !cold {
		for _, q := range queries {
			// Opening here recovers durable state, so corruption fails
			// the boot (not a request), and a warm start only
			// bootstraps the shortfall below the target.
			h, err := sched.OpenHistory(q)
			if err != nil {
				return fail(fmt.Errorf("server: federation %q: %w", sp.Name, err))
			}
			if need := sp.Bootstrap - h.Len(); need > 0 {
				if err := sched.Bootstrap(q, need); err != nil {
					return fail(fmt.Errorf("server: federation %q: bootstrap %v: %w", sp.Name, q, err))
				}
			}
		}
	}
	// Chaos attaches only after bootstrap so the model trains on the
	// well-behaved cloud and the faults land on serving, where they are
	// measured. The schedule is seeded, so a chaosed tenant replays.
	if chaosProfile.Enabled() {
		chaosSeed := sp.ChaosSeed
		if chaosSeed == 0 {
			chaosSeed = sp.Seed
		}
		scenario.AttachChaos(fed, chaosProfile, chaosSeed)
	}
	t := newTenant(sp.Name, sched, queries)
	t.store = store
	t.bootstrap = sp.Bootstrap
	t.stats.prunePolicy = pruner.Name()
	return t, nil
}

// LoadSpecs reads a JSON federation config: either a bare array of
// specs or {"federations": [...]}.
func LoadSpecs(r io.Reader) ([]FederationSpec, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// The first token decides the shape, so a malformed file reports
	// the error of the parse that was actually intended.
	if trimmed := bytes.TrimLeft(raw, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		var specs []FederationSpec
		if err := json.Unmarshal(raw, &specs); err != nil {
			return nil, fmt.Errorf("server: parsing federation config: %w", err)
		}
		return specs, nil
	}
	var wrapped struct {
		Federations []FederationSpec `json:"federations"`
	}
	if err := json.Unmarshal(raw, &wrapped); err != nil {
		return nil, fmt.Errorf("server: parsing federation config: %w", err)
	}
	return wrapped.Federations, nil
}

// LoadSpecsFile reads LoadSpecs from a path.
func LoadSpecsFile(path string) ([]FederationSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSpecs(f)
}
