// Package federation models the MIDAS cloud federation: sites that pair
// a cloud provider with a database engine, a catalog mapping TPC-H
// tables to sites, wide-area links between sites, and the space of
// equivalent Query Execution Plans (QEPs) for the paper's two-table
// queries — every combination of join site and per-site cluster size
// (paper Example 3.1: one logical plan explodes into thousands of
// equivalent QEPs once resource configurations are choices).
//
// Two executors produce cost observations. FullExecutor actually runs
// the relational plans over a generated database, so results can be
// checked against the TPC-H reference answers. ScaledExecutor replays
// operator statistics calibrated from one full run and rescales them to
// any data size, which makes the paper-scale experiments (hundreds of
// runs at 100 MiB / 1 GiB) take milliseconds while preserving the cost
// structure. Both feed time through the site's engine profile under a
// drifting load process and multiplicative noise — the federation
// variance DREAM is built to track.
package federation

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cloud"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/tpch"
)

// ErrUnknownSite is returned when a site name is not in the federation.
var ErrUnknownSite = errors.New("federation: unknown site")

// ErrNoCatalogEntry is returned when a table has no owning site.
var ErrNoCatalogEntry = errors.New("federation: table not in catalog")

// Site is one member of the federation: an engine deployed on a
// provider's VMs at one location.
type Site struct {
	Name     string
	Provider *cloud.Provider
	Engine   engine.Profile
	// Instance is the VM shape clusters at this site are built from.
	Instance string
	// MaxNodes bounds the rentable cluster size.
	MaxNodes int
	// Load is this site's time-varying load process.
	Load *cloud.LoadProcess
}

// Federation is the MIDAS topology.
type Federation struct {
	Sites   map[string]*Site
	Catalog map[string]string // table → site name
	// Links maps "from→to" to the WAN link; missing entries use Default.
	Links map[string]cloud.Link
	// DefaultLink is used for unlisted site pairs.
	DefaultLink cloud.Link
	// NoiseStd is the sigma of the multiplicative log-normal execution
	// noise (0 disables noise).
	NoiseStd float64

	rngMu sync.Mutex
	rng   *stats.RNG

	// clusterMu guards clusterCache, the per-(site, size) cluster
	// handles cost() reuses across executions (see cluster).
	clusterMu    sync.RWMutex
	clusterCache map[clusterKey]*cloud.Cluster
}

// clusterKey identifies one cached cluster handle.
type clusterKey struct {
	site  string
	nodes int
}

// Config assembles a Federation.
type Config struct {
	Sites       []*Site
	Catalog     map[string]string
	Links       map[string]cloud.Link
	DefaultLink cloud.Link
	NoiseStd    float64
	Seed        int64
}

// New validates and builds a federation.
func New(cfg Config) (*Federation, error) {
	if len(cfg.Sites) == 0 {
		return nil, errors.New("federation: no sites")
	}
	f := &Federation{
		Sites:       make(map[string]*Site, len(cfg.Sites)),
		Catalog:     make(map[string]string, len(cfg.Catalog)),
		Links:       cfg.Links,
		DefaultLink: cfg.DefaultLink,
		NoiseStd:    cfg.NoiseStd,
		rng:         stats.NewRNG(cfg.Seed),
	}
	if f.DefaultLink.BandwidthMiBps == 0 {
		f.DefaultLink = cloud.Link{BandwidthMiBps: 120, LatencyS: 0.08}
	}
	for _, s := range cfg.Sites {
		if s.Name == "" || s.Provider == nil || s.Load == nil {
			return nil, fmt.Errorf("federation: site %+v incompletely specified", s)
		}
		if _, err := s.Provider.Instance(s.Instance); err != nil {
			return nil, err
		}
		if s.MaxNodes <= 0 {
			return nil, fmt.Errorf("federation: site %q has no capacity", s.Name)
		}
		if _, dup := f.Sites[s.Name]; dup {
			return nil, fmt.Errorf("federation: duplicate site %q", s.Name)
		}
		f.Sites[s.Name] = s
	}
	for table, site := range cfg.Catalog {
		if _, ok := f.Sites[site]; !ok {
			return nil, fmt.Errorf("%w: catalog maps %q to %q", ErrUnknownSite, table, site)
		}
		f.Catalog[table] = site
	}
	return f, nil
}

// SiteOf returns the site owning a table.
func (f *Federation) SiteOf(table string) (*Site, error) {
	name, ok := f.Catalog[table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoCatalogEntry, table)
	}
	return f.Sites[name], nil
}

// link returns the WAN link from one site to another.
func (f *Federation) link(from, to string) cloud.Link {
	if l, ok := f.Links[from+"→"+to]; ok {
		return l
	}
	return f.DefaultLink
}

// Plan is one equivalent QEP of a two-table query: which site executes
// the join (and final aggregation) and how many VMs each site's
// cluster uses.
type Plan struct {
	Query tpch.QueryID
	// JoinAtLeft places the join at the left (fact) table's site when
	// true, otherwise at the right table's site.
	JoinAtLeft bool
	// NodesLeft and NodesRight size the two clusters.
	NodesLeft, NodesRight int
}

// String renders the plan compactly.
func (p Plan) String() string {
	side := "right"
	if p.JoinAtLeft {
		side = "left"
	}
	return fmt.Sprintf("%v[join@%s nL=%d nR=%d]", p.Query, side, p.NodesLeft, p.NodesRight)
}

// EnumeratePlans expands a query into its equivalent QEPs over the
// given cluster-size choices (paper Example 3.1): the lattice's walk in
// its one deterministic order (join-at-left first, then per-site sizes
// in menu order). Node choices beyond a site's MaxNodes are skipped;
// empty, non-positive, or duplicate menus are rejected (see
// ValidateNodeChoices). The slice is shared with the lattice — treat it
// as read-only.
func (f *Federation) EnumeratePlans(q tpch.QueryID, nodeChoices []int) ([]Plan, error) {
	lat, err := f.PlanLattice(q, nodeChoices)
	if err != nil {
		return nil, err
	}
	return lat.Plans(), nil
}

// FeatureDim is the length of plan feature vectors.
const FeatureDim = 5

// FeatureNames documents the regression features, following the paper's
// Example 2.1 (table sizes and per-cloud node counts) plus the join
// placement indicator.
var FeatureNames = [FeatureDim]string{
	"left_mib", "right_mib", "nodes_left", "nodes_right", "join_at_left",
}

// Features maps a plan plus data sizes to the estimation feature vector
// x of the paper's cost model (eq. 5): the sizes of the two input
// tables in MiB and the number of VMs at each cloud.
func Features(p Plan, leftBytes, rightBytes float64) []float64 {
	return AppendFeatures(make([]float64, 0, FeatureDim), p, leftBytes/(1024*1024), rightBytes/(1024*1024))
}

// AppendFeatures appends Features(p, …) to dst for input tables of the
// given sizes in MiB — the unit conversion is the caller's, once per
// query, not once per plan.
func AppendFeatures(dst []float64, p Plan, leftMiB, rightMiB float64) []float64 {
	joinLeft := 0.0
	if p.JoinAtLeft {
		joinLeft = 1
	}
	return append(dst,
		leftMiB,
		rightMiB,
		float64(p.NodesLeft),
		float64(p.NodesRight),
		joinLeft,
	)
}

// Metrics are the two cost objectives of every experiment in the paper.
var Metrics = []string{"time_s", "money_usd"}

// BreakdownMetrics extends Metrics with the per-operator timings of a
// federated execution, enabling IReS-style operator-level cost models
// (each operator gets its own regression; plan cost is reassembled from
// the pieces).
var BreakdownMetrics = []string{
	"time_s", "money_usd", "left_s", "right_s", "ship_s", "final_s",
}

// Outcome is the measured cost of one plan execution.
type Outcome struct {
	// TimeS is the end-to-end simulated execution time in seconds.
	TimeS float64
	// MoneyUSD is the pay-as-you-go monetary cost: VM occupancy at
	// both sites plus egress for the shipped intermediate result.
	MoneyUSD float64
	// Result is the query answer (nil for scaled executions).
	Result *engine.Relation
	// Breakdown diagnostics.
	LeftTimeS, RightTimeS, ShipTimeS, FinalTimeS float64
	ShippedBytes                                 float64
	LoadLeft, LoadRight                          float64
}

// Costs returns the cost vector in Metrics order.
func (o *Outcome) Costs() []float64 { return []float64{o.TimeS, o.MoneyUSD} }

// BreakdownCosts returns the cost vector in BreakdownMetrics order.
func (o *Outcome) BreakdownCosts() []float64 {
	return []float64{o.TimeS, o.MoneyUSD, o.LeftTimeS, o.RightTimeS, o.ShipTimeS, o.FinalTimeS}
}

// cluster returns the (site, size) cluster handle, built once and
// cached: a Cluster is immutable (provider, instance type, node count
// — all fixed for the federation's lifetime), and rebuilding two of
// them per execution put cloud.NewCluster on the serving hot path's
// allocation profile.
func (f *Federation) cluster(s *Site, nodes int) (*cloud.Cluster, error) {
	key := clusterKey{site: s.Name, nodes: nodes}
	f.clusterMu.RLock()
	c, ok := f.clusterCache[key]
	f.clusterMu.RUnlock()
	if ok {
		return c, nil
	}
	c, err := cloud.NewCluster(s.Provider, s.Instance, nodes)
	if err != nil {
		return nil, err
	}
	f.clusterMu.Lock()
	if f.clusterCache == nil {
		f.clusterCache = make(map[clusterKey]*cloud.Cluster)
	}
	f.clusterCache[key] = c
	f.clusterMu.Unlock()
	return c, nil
}

// noiseFactor draws one multiplicative noise sample. Safe for
// concurrent use: executions from many goroutines share one noise RNG.
func (f *Federation) noiseFactor() float64 {
	if f.NoiseStd <= 0 {
		return 1
	}
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	return f.rng.LogNormal(0, f.NoiseStd)
}

// pieces are the operator statistics of one federated execution, either
// measured (FullExecutor) or rescaled from calibration (ScaledExecutor).
type pieces struct {
	leftStats, rightStats, finalStats engine.Stats
	leftPrepBytes, rightPrepBytes     float64
}

// cost turns execution pieces into an Outcome under current load and
// fresh noise. Prep runs at the two sites in parallel; the remote prep
// result ships to the join site; the final plan runs there.
func (f *Federation) cost(q tpch.QueryID, p Plan, pc pieces) (*Outcome, error) {
	leftTable, rightTable := q.Tables()
	leftSite, err := f.SiteOf(leftTable)
	if err != nil {
		return nil, err
	}
	rightSite, err := f.SiteOf(rightTable)
	if err != nil {
		return nil, err
	}
	if p.NodesLeft < 1 || p.NodesLeft > leftSite.MaxNodes {
		return nil, fmt.Errorf("federation: plan %v exceeds %q capacity %d", p, leftSite.Name, leftSite.MaxNodes)
	}
	if p.NodesRight < 1 || p.NodesRight > rightSite.MaxNodes {
		return nil, fmt.Errorf("federation: plan %v exceeds %q capacity %d", p, rightSite.Name, rightSite.MaxNodes)
	}

	loadLeft := leftSite.Load.Tick()
	loadRight := rightSite.Load.Tick()

	out := &Outcome{LoadLeft: loadLeft, LoadRight: loadRight}
	out.LeftTimeS = leftSite.Engine.SimulateSeconds(pc.leftStats, p.NodesLeft, loadLeft) * f.noiseFactor()
	out.RightTimeS = rightSite.Engine.SimulateSeconds(pc.rightStats, p.NodesRight, loadRight) * f.noiseFactor()

	joinSite, joinNodes, joinLoad := rightSite, p.NodesRight, loadRight
	shipFrom, shipBytes := leftSite, pc.leftPrepBytes
	if p.JoinAtLeft {
		joinSite, joinNodes, joinLoad = leftSite, p.NodesLeft, loadLeft
		shipFrom, shipBytes = rightSite, pc.rightPrepBytes
	}
	out.ShippedBytes = shipBytes
	if shipFrom.Name != joinSite.Name {
		out.ShipTimeS = f.link(shipFrom.Name, joinSite.Name).TransferTime(shipBytes) * f.noiseFactor()
	}
	out.FinalTimeS = joinSite.Engine.SimulateSeconds(pc.finalStats, joinNodes, joinLoad) * f.noiseFactor()

	prepTime := out.LeftTimeS
	if out.RightTimeS > prepTime {
		prepTime = out.RightTimeS
	}
	out.TimeS = prepTime + out.ShipTimeS + out.FinalTimeS

	leftCluster, err := f.cluster(leftSite, p.NodesLeft)
	if err != nil {
		return nil, err
	}
	rightCluster, err := f.cluster(rightSite, p.NodesRight)
	if err != nil {
		return nil, err
	}
	leftBusy := out.LeftTimeS
	rightBusy := out.RightTimeS
	if p.JoinAtLeft {
		leftBusy += out.FinalTimeS
	} else {
		rightBusy += out.FinalTimeS
	}
	out.MoneyUSD = leftCluster.Cost(leftBusy) + rightCluster.Cost(rightBusy)
	if shipFrom.Name != joinSite.Name {
		out.MoneyUSD += cloud.TransferCost(shipFrom.Provider, shipBytes)
	}
	return out, nil
}
