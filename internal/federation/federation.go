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
	"math"
	"strings"
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

	// instanceType is Instance resolved in Provider's catalog by New.
	instanceType cloud.InstanceType
}

// Federation is the MIDAS topology.
type Federation struct {
	Sites   map[string]*Site
	Catalog map[string]string // table → site name
	// Links maps "from→to" to the WAN link; missing entries use Default.
	Links map[string]cloud.Link
	// DefaultLink is used for unlisted site pairs.
	DefaultLink cloud.Link

	// rngMu guards rng, the execution noise every draw takes from.
	rngMu sync.Mutex
	rng   *stats.RNG
}

// noiseStd is the sigma of the multiplicative log-normal execution
// noise on each timed piece of an execution.
const noiseStd = 0.10

// Config assembles a Federation.
type Config struct {
	Sites   []*Site
	Catalog map[string]string
	// Links and DefaultLink are as in Federation; New refuses a link no
	// transfer crosses in finite time. A zero DefaultLink takes 120 MiB/s
	// at 80 ms.
	Links       map[string]cloud.Link
	DefaultLink cloud.Link
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
		rng:         stats.NewRNG(cfg.Seed),
	}
	if f.DefaultLink == (cloud.Link{}) {
		f.DefaultLink = cloud.Link{BandwidthMiBps: 120, LatencyS: 0.08}
	}
	if badLink(f.DefaultLink) {
		return nil, fmt.Errorf("federation: bad default link %+v", f.DefaultLink)
	}
	for _, s := range cfg.Sites {
		if s.Name == "" || s.Provider == nil || s.Load == nil {
			return nil, fmt.Errorf("federation: site %+v incompletely specified", s)
		}
		it, err := s.Provider.Instance(s.Instance)
		if err != nil {
			return nil, err
		}
		s.instanceType = it
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
	for key, l := range cfg.Links {
		if from, to, _ := strings.Cut(key, "→"); f.Sites[from] == nil || f.Sites[to] == nil {
			return nil, fmt.Errorf("%w: link %q is not \"from→to\" between two sites", ErrUnknownSite, key)
		}
		if badLink(l) {
			return nil, fmt.Errorf("federation: bad link %q %+v", key, l)
		}
	}
	return f, nil
}

// badLink reports whether no transfer crosses l in finite time: its
// bandwidth must be positive and its latency non-negative, both finite.
func badLink(l cloud.Link) bool {
	return !(l.BandwidthMiBps > 0 && l.LatencyS >= 0) || math.IsInf(l.BandwidthMiBps+l.LatencyS, 1)
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

// FeatureDim is the length of plan feature vectors. The estimator holds
// models over up to core.InlineFeatures features without allocating;
// raising this past it moves every window fit to the heap.
const FeatureDim = 5

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
// Up to core.InlineMetrics of them are estimated without allocating.
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
	Result *engine.Result
	// Breakdown diagnostics.
	LeftTimeS, RightTimeS, ShipTimeS, FinalTimeS float64
	ShippedBytes                                 float64
	// Env is the environment the execution ran under.
	Env Env
}

// Costs returns the cost vector in Metrics order.
func (o *Outcome) Costs() []float64 { return []float64{o.TimeS, o.MoneyUSD} }

// BreakdownCosts returns the cost vector in BreakdownMetrics order.
func (o *Outcome) BreakdownCosts() []float64 {
	return []float64{o.TimeS, o.MoneyUSD, o.LeftTimeS, o.RightTimeS, o.ShipTimeS, o.FinalTimeS}
}

// pieces are the operator statistics of one federated execution, either
// measured (FullExecutor) or rescaled from calibration (ScaledExecutor).
type pieces struct {
	leftStats, rightStats, finalStats engine.Stats
	leftPrepBytes, rightPrepBytes     float64
}

// Env is the state of the federation one execution meets: the load
// factors and price multipliers of the plan's two sites, and the noise
// on each timed piece. Execution draws it; ScaledExecutor.CostUnder
// prices any plan under it.
type Env struct {
	LoadLeft, LoadRight   float64
	PriceLeft, PriceRight float64
	// NoiseLeft, NoiseRight, NoiseShip and NoiseFinal multiply the left
	// prep, right prep, shipping and final times; NoiseShip is 1 when
	// the two tables share a site.
	NoiseLeft, NoiseRight, NoiseShip, NoiseFinal float64
}

// Noiseless returns env with every noise factor 1: the loads and prices
// alone.
func (env Env) Noiseless() Env {
	env.NoiseLeft, env.NoiseRight, env.NoiseShip, env.NoiseFinal = 1, 1, 1, 1
	return env
}

// sites resolves the sites holding p's two tables and checks that p's
// clusters fit them.
func (f *Federation) sites(p Plan) (left, right *Site, err error) {
	leftTable, rightTable := p.Query.Tables()
	if left, err = f.SiteOf(leftTable); err != nil {
		return nil, nil, err
	}
	if right, err = f.SiteOf(rightTable); err != nil {
		return nil, nil, err
	}
	if p.NodesLeft < 1 || p.NodesLeft > left.MaxNodes {
		return nil, nil, fmt.Errorf("federation: plan %v exceeds %q capacity %d", p, left.Name, left.MaxNodes)
	}
	if p.NodesRight < 1 || p.NodesRight > right.MaxNodes {
		return nil, nil, fmt.Errorf("federation: plan %v exceeds %q capacity %d", p, right.Name, right.MaxNodes)
	}
	return left, right, nil
}

// execute draws the environment for one execution of p over the given
// pieces and prices it there.
func (f *Federation) execute(p Plan, pc pieces) (*Outcome, error) {
	left, right, err := f.sites(p)
	if err != nil {
		return nil, err
	}
	return f.costUnder(p, left, right, pc, f.draw(left, right)), nil
}

// draw moves the federation one execution forward: it ticks both
// sites' loads, then takes the noise factors from the shared RNG (left,
// right, shipping — only when the tables live apart — and final), then
// reads both providers' price multipliers. It is the only place an
// execution takes a lock or a random number.
func (f *Federation) draw(left, right *Site) Env {
	env := Env{LoadLeft: left.Load.Tick(), LoadRight: right.Load.Tick(), NoiseShip: 1}
	f.rngMu.Lock()
	env.NoiseLeft = f.rng.LogNormal(0, noiseStd)
	env.NoiseRight = f.rng.LogNormal(0, noiseStd)
	if left.Name != right.Name {
		env.NoiseShip = f.rng.LogNormal(0, noiseStd)
	}
	env.NoiseFinal = f.rng.LogNormal(0, noiseStd)
	f.rngMu.Unlock()
	env.PriceLeft = left.Provider.PriceFactor()
	env.PriceRight = right.Provider.PriceFactor()
	return env
}

// costUnder prices plan p, over the given pieces at its sites left and
// right, under env. Prep runs at the two sites in parallel; the remote
// prep result ships to the join site; the final plan runs there. Money
// is per-second VM rental at both sites plus egress for the shipped
// result, at list price times the site's price multiplier. It is pure:
// no lock, no random number, no write.
func (f *Federation) costUnder(p Plan, left, right *Site, pc pieces, env Env) *Outcome {
	out := &Outcome{Env: env}
	out.LeftTimeS = left.Engine.SimulateSeconds(pc.leftStats, p.NodesLeft, env.LoadLeft) * env.NoiseLeft
	out.RightTimeS = right.Engine.SimulateSeconds(pc.rightStats, p.NodesRight, env.LoadRight) * env.NoiseRight

	joinSite, joinNodes, joinLoad := right, p.NodesRight, env.LoadRight
	shipFrom, shipBytes, shipPrice := left, pc.leftPrepBytes, env.PriceLeft
	if p.JoinAtLeft {
		joinSite, joinNodes, joinLoad = left, p.NodesLeft, env.LoadLeft
		shipFrom, shipBytes, shipPrice = right, pc.rightPrepBytes, env.PriceRight
	}
	out.ShippedBytes = shipBytes
	ships := left.Name != right.Name
	if ships {
		out.ShipTimeS = f.link(shipFrom.Name, joinSite.Name).TransferTime(shipBytes) * env.NoiseShip
	}
	out.FinalTimeS = joinSite.Engine.SimulateSeconds(pc.finalStats, joinNodes, joinLoad) * env.NoiseFinal
	out.TimeS = max(out.LeftTimeS, out.RightTimeS) + out.ShipTimeS + out.FinalTimeS

	leftBusy, rightBusy := out.LeftTimeS, out.RightTimeS+out.FinalTimeS
	if p.JoinAtLeft {
		leftBusy, rightBusy = out.LeftTimeS+out.FinalTimeS, out.RightTimeS
	}
	out.MoneyUSD = rent(p.NodesLeft, left, leftBusy, env.PriceLeft) + rent(p.NodesRight, right, rightBusy, env.PriceRight)
	if ships {
		out.MoneyUSD += cloud.TransferCost(shipFrom.Provider, shipBytes) * shipPrice
	}
	return out
}

// rent is the charge for occupying nodes VMs at site s for busy
// seconds at price multiplier price. Billing is per second, the
// granularity all three providers converged on.
func rent(nodes int, s *Site, busy, price float64) float64 {
	return float64(nodes) * s.instanceType.PricePerHour * busy / 3600 * price
}
