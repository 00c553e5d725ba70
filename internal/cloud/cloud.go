// Package cloud models the federation substrate the paper's system runs
// on: cloud service providers with heterogeneous instance catalogs and
// pay-as-you-go pricing (paper Table 1), a wide-area transfer model
// between sites, and time-varying load processes that create the
// variance DREAM is designed to absorb.
//
// The paper ran on a private cloud; this package is the documented
// substitution (see DESIGN.md): it reproduces the *variance classes*
// the paper attributes to federations — heterogeneous hardware,
// drifting load, wide-range communication and divergent pricing —
// in a deterministic, seedable simulator.
package cloud

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// ErrUnknownInstance is returned when an instance type is not in a
// provider's catalog.
var ErrUnknownInstance = errors.New("cloud: unknown instance type")

// InstanceType describes one purchasable VM shape.
type InstanceType struct {
	Name         string
	VCPU         int
	MemoryGiB    float64
	StorageGiB   float64 // 0 means remote-only storage (EBS-style)
	PricePerHour float64 // USD
}

// Provider is a cloud service provider with an instance catalog.
type Provider struct {
	Name      string
	Instances []InstanceType
	// EgressPerGiB is the price of data leaving the provider (USD/GiB).
	EgressPerGiB float64

	// chaos, when attached, scales prices during injected spike windows.
	// Atomic so attachment can race with concurrent cost evaluations.
	chaos atomic.Pointer[SiteChaos]
}

// AttachChaos routes this provider's pricing through a per-site fault
// injector: PriceFactor reads its spike windows. A nil injector
// detaches.
func (p *Provider) AttachChaos(sc *SiteChaos) { p.chaos.Store(sc) }

// PriceFactor is the active multiplier on the provider's list prices,
// compute and egress alike (1 when no chaos is attached or no spike
// window is open).
func (p *Provider) PriceFactor() float64 {
	if sc := p.chaos.Load(); sc != nil {
		return sc.PriceFactor()
	}
	return 1
}

// Instance looks up an instance type by name.
func (p *Provider) Instance(name string) (InstanceType, error) {
	for _, it := range p.Instances {
		if it.Name == name {
			return it, nil
		}
	}
	return InstanceType{}, fmt.Errorf("%w: %q at provider %q", ErrUnknownInstance, name, p.Name)
}

// Amazon returns the Amazon catalog of the paper's Table 1 (a1 family,
// EBS-only storage).
func Amazon() *Provider {
	return &Provider{
		Name:         "Amazon",
		EgressPerGiB: 0.09,
		Instances: []InstanceType{
			{Name: "a1.medium", VCPU: 1, MemoryGiB: 2, StorageGiB: 0, PricePerHour: 0.0049},
			{Name: "a1.large", VCPU: 2, MemoryGiB: 4, StorageGiB: 0, PricePerHour: 0.0098},
			{Name: "a1.xlarge", VCPU: 4, MemoryGiB: 8, StorageGiB: 0, PricePerHour: 0.0197},
			{Name: "a1.2xlarge", VCPU: 8, MemoryGiB: 16, StorageGiB: 0, PricePerHour: 0.0394},
			{Name: "a1.4xlarge", VCPU: 16, MemoryGiB: 32, StorageGiB: 0, PricePerHour: 0.0788},
		},
	}
}

// Microsoft returns the Microsoft catalog of the paper's Table 1
// (B family, bundled storage).
func Microsoft() *Provider {
	return &Provider{
		Name:         "Microsoft",
		EgressPerGiB: 0.087,
		Instances: []InstanceType{
			{Name: "B1S", VCPU: 1, MemoryGiB: 1, StorageGiB: 2, PricePerHour: 0.011},
			{Name: "B1MS", VCPU: 1, MemoryGiB: 2, StorageGiB: 4, PricePerHour: 0.021},
			{Name: "B2S", VCPU: 2, MemoryGiB: 4, StorageGiB: 8, PricePerHour: 0.042},
			{Name: "B2MS", VCPU: 2, MemoryGiB: 8, StorageGiB: 16, PricePerHour: 0.084},
			{Name: "B4MS", VCPU: 4, MemoryGiB: 16, StorageGiB: 32, PricePerHour: 0.166},
			{Name: "B8MS", VCPU: 8, MemoryGiB: 32, StorageGiB: 64, PricePerHour: 0.333},
		},
	}
}

// Google returns a representative third catalog so examples can span
// the three providers named in the paper's architecture figure.
func Google() *Provider {
	return &Provider{
		Name:         "Google",
		EgressPerGiB: 0.08,
		Instances: []InstanceType{
			{Name: "e2-small", VCPU: 2, MemoryGiB: 2, StorageGiB: 0, PricePerHour: 0.0134},
			{Name: "e2-medium", VCPU: 2, MemoryGiB: 4, StorageGiB: 0, PricePerHour: 0.0268},
			{Name: "e2-standard-4", VCPU: 4, MemoryGiB: 16, StorageGiB: 0, PricePerHour: 0.1073},
			{Name: "e2-standard-8", VCPU: 8, MemoryGiB: 32, StorageGiB: 0, PricePerHour: 0.2146},
		},
	}
}

// Link models a wide-area connection between two sites.
type Link struct {
	// BandwidthMiBps is the sustained throughput in MiB/s.
	BandwidthMiBps float64
	// LatencyS is the one-way setup latency in seconds.
	LatencyS float64
}

// TransferTime returns the seconds needed to ship the given number of
// bytes across the link.
func (l Link) TransferTime(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return l.LatencyS + bytes/(l.BandwidthMiBps*1024*1024)
}

// TransferCost returns the egress charge, at list price, for shipping
// bytes out of the source provider.
func TransferCost(from *Provider, bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return from.EgressPerGiB * bytes / (1024 * 1024 * 1024)
}

// The load process's parameters. They make the drift the *dominant*
// variance source (walk + diurnal swing well above the white noise),
// matching the paper's premise that long-gone observations are expired
// information rather than extra signal.
const (
	WalkStd              = 0.12     // σ of the random walk's step per tick
	JumpProb             = 0.06     // per-tick probability of a persistent level shift
	JumpStd              = 0.40     // σ of a jump
	DiurnalAmplitude     = 0.2      // amplitude of the sinusoidal component
	DiurnalPeriod        = 120      // the sinusoid's period in ticks
	NoiseStd             = 0.05     // σ of the per-tick white noise
	MinFactor, MaxFactor = 0.4, 3.0 // the clamp; chaos multiplies after it
)

// LoadProcess is a time-varying multiplicative load factor for one
// site. It combines a random walk (tenant churn), occasional persistent
// jump shocks (VM migrations, noisy-neighbour arrivals), a diurnal wave
// (office-hours load) and white noise — the "load evolution" and
// "variability of environment" of the paper's Section 1. Values are
// clamped to [MinFactor, MaxFactor].
type LoadProcess struct {
	mu    sync.Mutex
	rng   *stats.RNG
	walk  float64
	tick  int
	chaos *SiteChaos
}

// AttachChaos routes this load process through a per-site fault
// injector. The injector's multiplier is applied *after* the
// [MinFactor, MaxFactor] clamp so an outage can push the factor far
// outside the normal operating range — that is the point of the fault.
// A nil injector detaches.
func (lp *LoadProcess) AttachChaos(sc *SiteChaos) {
	lp.mu.Lock()
	lp.chaos = sc
	lp.mu.Unlock()
}

// NewLoadProcess returns a load process with the given seed.
func NewLoadProcess(seed int64) *LoadProcess {
	return &LoadProcess{rng: stats.NewRNG(seed)}
}

// Tick advances simulated time one step and returns the current load
// factor (1.0 = nominal). Safe for concurrent use: a serving layer
// executes plans from many goroutines against one shared federation.
func (lp *LoadProcess) Tick() float64 {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	lp.tick++
	lp.walk += lp.rng.Normal(0, WalkStd)
	if lp.rng.Bernoulli(JumpProb) {
		lp.walk += lp.rng.Normal(0, JumpStd)
	}
	// Keep the walk itself loosely bounded so factors cannot drift
	// beyond recovery over long experiments.
	if lp.walk > 1 {
		lp.walk = 1
	}
	if lp.walk < -0.6 {
		lp.walk = -0.6
	}
	diurnal := DiurnalAmplitude * math.Sin(2*math.Pi*float64(lp.tick)/DiurnalPeriod)
	noise := lp.rng.Normal(0, NoiseStd)
	f := 1 + lp.walk + diurnal + noise
	if f < MinFactor {
		f = MinFactor
	}
	if f > MaxFactor {
		f = MaxFactor
	}
	if lp.chaos != nil {
		f *= lp.chaos.advance(lp.tick)
	}
	return f
}
