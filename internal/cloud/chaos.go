package cloud

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"repro/internal/stats"
)

// ChaosProfile parameterizes the fault classes a scenario can inject
// into the simulated federation: whole-site outages, stragglers
// (noisy-neighbour slowdowns), transient price spikes, and autoscaling
// pool resizes. All faults are expressed as multiplicative windows —
// a load multiplier applied after the LoadProcess clamp (so an outage
// is not clamped back into the normal operating range) or a price
// multiplier read through Provider.PriceFactor.
//
// A zero profile injects nothing; the exported helpers below hold the
// named profiles the scenario matrix runs.
type ChaosProfile struct {
	Name string

	// Outage: the site is effectively unavailable — work queued behind
	// it stretches by OutageFactor.
	OutageProb             float64 // per-tick start probability when idle
	OutageMinT, OutageMaxT int     // window length in ticks
	OutageFactor           float64 // load multiplier during the window
	// Straggler: the site limps along several times slower than nominal.
	StragglerProb                float64
	StragglerMinT, StragglerMaxT int
	StragglerFactor              float64
	// Price spike: spot-market style transient price surge.
	SpikeProb            float64
	SpikeMinT, SpikeMaxT int
	SpikeFactor          float64
	// Pool resize: the autoscaler grows or shrinks the shared pool; the
	// effective per-query capacity multiplier is drawn uniformly from
	// [ResizeLo, ResizeHi] (values < 1 mean the pool grew).
	ResizeProb             float64
	ResizeMinT, ResizeMaxT int
	ResizeLo, ResizeHi     float64
}

// Enabled reports whether the profile can inject any fault at all.
func (p ChaosProfile) Enabled() bool {
	return p.OutageProb > 0 || p.StragglerProb > 0 || p.SpikeProb > 0 || p.ResizeProb > 0
}

// chaosProfiles is the registry of named profiles. Probabilities are
// per *load-process tick* (one tick per plan execution touching the
// site), so a 0.01 outage probability yields roughly one outage per
// hundred executions.
var chaosProfiles = map[string]ChaosProfile{
	"none": {Name: "none"},
	"outages": {
		Name:       "outages",
		OutageProb: 0.010, OutageMinT: 5, OutageMaxT: 20, OutageFactor: 25,
	},
	"stragglers": {
		Name:          "stragglers",
		StragglerProb: 0.050, StragglerMinT: 3, StragglerMaxT: 12, StragglerFactor: 4,
	},
	"price-spikes": {
		Name:      "price-spikes",
		SpikeProb: 0.040, SpikeMinT: 10, SpikeMaxT: 40, SpikeFactor: 3,
	},
	"autoscale": {
		Name:       "autoscale",
		ResizeProb: 0.050, ResizeMinT: 8, ResizeMaxT: 30, ResizeLo: 0.5, ResizeHi: 2.0,
	},
	"mixed": {
		Name:       "mixed",
		OutageProb: 0.006, OutageMinT: 5, OutageMaxT: 20, OutageFactor: 25,
		StragglerProb: 0.030, StragglerMinT: 3, StragglerMaxT: 12, StragglerFactor: 4,
		SpikeProb: 0.025, SpikeMinT: 10, SpikeMaxT: 40, SpikeFactor: 3,
		ResizeProb: 0.030, ResizeMinT: 8, ResizeMaxT: 30, ResizeLo: 0.5, ResizeHi: 2.0,
	},
}

// ChaosProfileNames lists the named profiles, sorted, for flag help.
func ChaosProfileNames() []string {
	names := make([]string, 0, len(chaosProfiles))
	for n := range chaosProfiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseChaosProfile resolves a profile by name ("none", "outages",
// "stragglers", "price-spikes", "autoscale", "mixed").
func ParseChaosProfile(name string) (ChaosProfile, error) {
	if name == "" {
		name = "none"
	}
	p, ok := chaosProfiles[name]
	if !ok {
		return ChaosProfile{}, fmt.Errorf("cloud: unknown chaos profile %q (have %s)",
			name, strings.Join(ChaosProfileNames(), ", "))
	}
	return p, nil
}

// Chaos is a deterministic fault injector for one federation. It hands
// out one SiteChaos per site name; each site's fault schedule is driven
// by an independent RNG whose seed derives from the engine seed and the
// site name, so the schedule is reproducible regardless of the order
// sites are attached or ticked in.
type Chaos struct {
	Profile ChaosProfile
	seed    int64

	mu    sync.Mutex
	sites map[string]*SiteChaos
}

// NewChaos builds a fault injector with the given profile and seed.
func NewChaos(profile ChaosProfile, seed int64) *Chaos {
	return &Chaos{Profile: profile, seed: seed, sites: make(map[string]*SiteChaos)}
}

// Site returns the (lazily created) per-site injector for name.
func (c *Chaos) Site(name string) *SiteChaos {
	c.mu.Lock()
	defer c.mu.Unlock()
	sc, ok := c.sites[name]
	if !ok {
		h := fnv.New64a()
		_, _ = h.Write([]byte(name))
		sc = &SiteChaos{
			profile:   c.Profile,
			rng:       stats.NewRNG(c.seed ^ int64(h.Sum64()>>1)),
			loadMult:  1,
			priceMult: 1,
		}
		c.sites[name] = sc
	}
	return sc
}

// FaultCounts aggregates the windows every site injector has opened —
// the observability handle the scenario tables report.
type FaultCounts struct {
	Outages, Stragglers, Spikes, Resizes int
}

// Counts sums fault windows across all sites.
func (c *Chaos) Counts() FaultCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t FaultCounts
	for _, sc := range c.sites {
		fc := sc.Counts()
		t.Outages += fc.Outages
		t.Stragglers += fc.Stragglers
		t.Spikes += fc.Spikes
		t.Resizes += fc.Resizes
	}
	return t
}

// SiteChaos is the per-site fault schedule. Chaos time advances with
// the site's LoadProcess ticks: each Tick consults advance(tick), which
// replays any skipped ticks so the schedule is a pure function of
// (profile, seed, tick) — the determinism the scenario engine pins.
type SiteChaos struct {
	profile ChaosProfile

	mu     sync.Mutex
	rng    *stats.RNG
	cursor int

	loadMult   float64
	loadUntil  int
	priceMult  float64
	priceUntil int

	counts FaultCounts
}

// advance moves the schedule forward to tick and returns the active
// load multiplier (1 when no fault window is open).
func (s *SiteChaos) advance(tick int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.cursor < tick {
		s.cursor++
		s.step(s.cursor)
	}
	return s.loadMult
}

// step opens new fault windows at tick t when none is active. At most
// one load-affecting window (outage > straggler > resize, in priority
// order) and one price window are open at a time.
func (s *SiteChaos) step(t int) {
	p := s.profile
	if t >= s.loadUntil {
		s.loadMult = 1
		switch {
		case p.OutageProb > 0 && s.rng.Bernoulli(p.OutageProb):
			s.loadMult = p.OutageFactor
			s.loadUntil = t + s.window(p.OutageMinT, p.OutageMaxT)
			s.counts.Outages++
		case p.StragglerProb > 0 && s.rng.Bernoulli(p.StragglerProb):
			s.loadMult = p.StragglerFactor
			s.loadUntil = t + s.window(p.StragglerMinT, p.StragglerMaxT)
			s.counts.Stragglers++
		case p.ResizeProb > 0 && s.rng.Bernoulli(p.ResizeProb):
			s.loadMult = s.rng.Uniform(p.ResizeLo, p.ResizeHi)
			s.loadUntil = t + s.window(p.ResizeMinT, p.ResizeMaxT)
			s.counts.Resizes++
		}
	}
	if t >= s.priceUntil {
		s.priceMult = 1
		if p.SpikeProb > 0 && s.rng.Bernoulli(p.SpikeProb) {
			s.priceMult = p.SpikeFactor
			s.priceUntil = t + s.window(p.SpikeMinT, p.SpikeMaxT)
			s.counts.Spikes++
		}
	}
}

func (s *SiteChaos) window(lo, hi int) int {
	if hi <= lo {
		return max(lo, 1)
	}
	return lo + s.rng.Intn(hi-lo+1)
}

// PriceFactor returns the active price multiplier (1 outside spikes).
func (s *SiteChaos) PriceFactor() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.priceMult
}

// Counts reports how many fault windows this site has opened.
func (s *SiteChaos) Counts() FaultCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts
}
