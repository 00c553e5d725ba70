package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/histstore"
	"repro/internal/ires"
	"repro/internal/metrics"
	"repro/internal/regression"
	"repro/internal/scenario"
	"repro/internal/tpch"
)

// QueryScheduler is the slice of ires.Scheduler the serving layer
// drives. Narrowing to an interface keeps the admission/batching
// machinery testable against stub schedulers with controllable latency.
type QueryScheduler interface {
	// PlanSweep runs the policy-independent half of a round (enumerate,
	// estimate, Pareto-reduce); the result is shared across coalesced
	// submissions. ctx carries the leading request's deadline and is
	// valid only for the call: the server reuses it once PlanSweep
	// returns, so nothing may keep it.
	PlanSweep(ctx context.Context, q tpch.QueryID) (*ires.Sweep, error)
	// DecideFromSweep selects under one request's policy, executes the
	// winner and records the outcome.
	DecideFromSweep(sw *ires.Sweep, pol ires.Policy) (*ires.Decision, error)
	// History exposes the query's execution log for /v1/history; nil
	// when the scheduler holds none (a tenant another node owns). It
	// must not create or open one.
	History(q tpch.QueryID) *core.History
	// Checkpoint fsyncs every observation recorded so far (periodic,
	// admin and drain-time checkpoints); a scheduler without durable
	// state returns nil.
	Checkpoint() error
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
	// NodeChoices is the cluster-size menu (default {1, 2, 4}).
	NodeChoices []int `json:"node_choices,omitempty"`
	// Bootstrap seeds each query's history with this many random
	// executions before serving (default 20).
	Bootstrap int `json:"bootstrap,omitempty"`
	// Queries restricts which queries the tenant serves (default: all
	// four studied queries).
	Queries []string `json:"queries,omitempty"`
	// Chaos names a fault-injection profile ("none", "outages",
	// "stragglers", "price-spikes", "autoscale", "mixed") attached to the
	// tenant's cloud after its first activation, wherever that runs (boot,
	// handoff, takeover): bootstrap trains on the well-behaved cloud,
	// serving weathers the faults. Empty means none.
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

// topologies are the federations a spec can name. Their sites cap at 16,
// 4 and 12 nodes, so no node-choice menu reaches more than 128 plans: a
// full sweep is all a tenant ever needs (TestServedLatticeBound).
var topologies = map[string]func(seed int64) (*federation.Federation, error){
	"default":    federation.DefaultTopology,
	"threecloud": federation.ThreeCloudTopology,
}

// calibrations holds, for the length of one New, one calibration per
// seed, over the union of the queries the specs with that seed serve,
// made when the first of those specs is built. Calibrating generates a
// TPC-H database and runs the queries over it — nearly all of a tenant
// build — and reads nothing of the topology, so every tenant sharing the
// seed shares the result, which is read-only once built.
type calibrations map[int64]*seedCalibration

type seedCalibration struct {
	queries []tpch.QueryID
	cal     *federation.Calibration
}

// newCalibrations plans the calibrations of specs. A spec whose queries
// do not resolve adds none: building it reports the error.
func newCalibrations(specs []FederationSpec) calibrations {
	calibs := make(calibrations)
	for i := range specs {
		sp := specs[i].withDefaults()
		queries, err := sp.queries()
		if err != nil {
			continue
		}
		sc := calibs[sp.Seed]
		if sc == nil {
			sc = &seedCalibration{}
			calibs[sp.Seed] = sc
		}
		for _, q := range queries {
			if !slices.Contains(sc.queries, q) {
				sc.queries = append(sc.queries, q)
			}
		}
	}
	return calibs
}

// calibration returns the seed's calibration, calibrating it on first
// use; a seed calibs did not plan is calibrated for queries alone.
func (calibs calibrations) calibration(fed *federation.Federation, seed int64, queries []tpch.QueryID) (*federation.Calibration, error) {
	sc := calibs[seed]
	if sc == nil {
		return federation.Calibrate(fed, federation.CalibrationSF, seed, queries...)
	}
	if sc.cal == nil {
		cal, err := federation.Calibrate(fed, federation.CalibrationSF, seed, sc.queries...)
		if err != nil {
			return nil, err
		}
		sc.cal = cal
	}
	return sc.cal, nil
}

// buildTenant assembles the spec's scheduler: topology, calibration,
// ires.NewDREAMScheduler, and — with a store configured — the tenant's
// durable history root. It opens no history: the tenant comes back cold
// and remote, and only activateTenant opens it — at boot on the node
// that owns it, later on a handoff's target or a promoted standby. The
// assembly is deterministic (same spec, same seed → same
// topology, calibration and models on every node), and every activation
// opens and bootstraps the same way, so a tenant activated by a handoff
// or takeover decides exactly as one activated at boot would. mirror,
// when non-nil, receives every WAL append of the tenant's store (cluster
// replication). calibs supplies the calibration; a nil one calibrates
// the spec's queries alone.
func buildTenant(spec FederationSpec, storeCfg StoreConfig, reg *metrics.Registry, mirror histstore.Mirror, calibs calibrations) (*tenant, error) {
	sp := spec.withDefaults()
	if sp.Name == "" {
		return nil, fmt.Errorf("server: federation spec without a name")
	}
	// Fewer executions than the regression needs would leave every
	// submission without a fit, and nothing recorded ever after.
	if least := regression.MinObservations(federation.FeatureDim); sp.Bootstrap < least {
		return nil, fmt.Errorf("server: federation %q: bootstrap %d is below the regression minimum %d", sp.Name, sp.Bootstrap, least)
	}
	queries, err := sp.queries()
	if err != nil {
		return nil, fmt.Errorf("server: federation %q: %w", sp.Name, err)
	}
	chaosProfile, err := cloud.ParseChaosProfile(sp.Chaos)
	if err != nil {
		return nil, fmt.Errorf("server: federation %q: %w", sp.Name, err)
	}
	topology, ok := topologies[sp.Topology]
	if !ok {
		return nil, fmt.Errorf("server: federation %q: unknown topology %q (default, threecloud)", sp.Name, sp.Topology)
	}
	fed, err := topology(sp.Seed)
	if err != nil {
		return nil, fmt.Errorf("server: federation %q: %w", sp.Name, err)
	}
	cal, err := calibs.calibration(fed, sp.Seed, queries)
	if err != nil {
		return nil, fmt.Errorf("server: federation %q: calibrate: %w", sp.Name, err)
	}
	schedCfg := ires.SchedulerConfig{
		NodeChoices:       sp.NodeChoices,
		Seed:              sp.Seed,
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
			// GroupCommit: Fsync's synonym, for the frozen bench/ (ROADMAP 1(a)).
			Fsync:        storeCfg.Fsync || storeCfg.GroupCommit,
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
	sched, err := ires.NewDREAMScheduler(fed, cal, sp.SF, schedCfg)
	if err != nil {
		// The store has opened no shard, so it holds no file to release.
		return nil, fmt.Errorf("server: federation %q: %w", sp.Name, err)
	}
	t := newTenant(sp.Name, sched, queries, true)
	t.store = store
	t.bootstrap = sp.Bootstrap
	if chaosProfile.Enabled() {
		chaosSeed := sp.ChaosSeed
		if chaosSeed == 0 {
			chaosSeed = sp.Seed
		}
		t.attachChaos = func() { scenario.AttachChaos(fed, chaosProfile, chaosSeed) }
	}
	return t, nil
}

// LoadSpecs reads a JSON federation config: either a bare array of
// specs or {"federations": [...]}. A key FederationSpec does not have —
// a typo, a knob a newer build removed — is an error, not a default.
func LoadSpecs(r io.Reader) ([]FederationSpec, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var wrapped struct {
		Federations []FederationSpec `json:"federations"`
	}
	// The first token decides the shape, so a malformed file reports
	// the error of the parse that was actually intended.
	if trimmed := bytes.TrimLeft(raw, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		err = dec.Decode(&wrapped.Federations)
	} else {
		err = dec.Decode(&wrapped)
	}
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("data after the config document")
		}
	}
	if err != nil {
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
