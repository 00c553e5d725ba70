package scenario

import (
	"time"

	"repro/internal/cloud"
	"repro/internal/federation"
	"repro/internal/stats"
)

// Spec names one scenario: an arrival process at a mean rate, a chaos
// profile, and the query mix to draw from. Generate turns it into a
// concrete event schedule; the same spec and seed always yield the
// same schedule.
type Spec struct {
	// Name labels the scenario in tables and artifacts; defaults to
	// "<arrival>/<chaos>".
	Name string
	// Arrival is the process kind: "poisson", "bursty" or "diurnal".
	Arrival string
	// Rate is the mean arrival rate in events/second (default 20).
	Rate float64
	// Chaos names the cloud.ChaosProfile to inject (default "none").
	Chaos string
	// Events is the schedule length (default 200).
	Events int
	// Federation tags the generated events (default "default").
	Federation string
	// Queries is the mix drawn from uniformly (default {"Q12"}).
	Queries []string
	// Seed drives the arrival process and the query picker.
	Seed int64
}

func (s Spec) withDefaults() Spec {
	if s.Arrival == "" {
		s.Arrival = "poisson"
	}
	if s.Rate <= 0 {
		s.Rate = 20
	}
	if s.Chaos == "" {
		s.Chaos = "none"
	}
	if s.Events <= 0 {
		s.Events = 200
	}
	if s.Federation == "" {
		s.Federation = "default"
	}
	if len(s.Queries) == 0 {
		s.Queries = []string{"Q12"}
	}
	if s.Name == "" {
		s.Name = s.Arrival + "/" + s.Chaos
	}
	return s
}

// Profile resolves the spec's chaos profile.
func (s Spec) Profile() (cloud.ChaosProfile, error) {
	return cloud.ParseChaosProfile(s.withDefaults().Chaos)
}

// Generate materializes the deterministic event schedule: arrival gaps
// from the seeded process, queries drawn uniformly from the mix by an
// independent RNG (seed+1) so changing the query mix does not perturb
// the arrival times.
func (s Spec) Generate() ([]Event, error) {
	s = s.withDefaults()
	if _, err := s.Profile(); err != nil {
		return nil, err
	}
	arr, err := NewArrival(s.Arrival, s.Rate, s.Seed)
	if err != nil {
		return nil, err
	}
	pick := stats.NewRNG(s.Seed + 1)
	events := make([]Event, 0, s.Events)
	var offset time.Duration
	for i := 0; i < s.Events; i++ {
		offset += arr.Next()
		events = append(events, Event{
			Offset:     offset,
			Federation: s.Federation,
			Query:      s.Queries[pick.Intn(len(s.Queries))],
		})
	}
	return events, nil
}

// matrixChaos is the chaos axis of the standard matrix. "autoscale" is
// deliberately folded into "mixed" to keep the nightly sweep at 15
// cells; run it alone via a custom Spec when isolating resize effects.
var matrixChaos = []string{"none", "outages", "stragglers", "price-spikes", "mixed"}

// Matrix is the standard scenario grid: every arrival process crossed
// with the representative chaos profiles, all deriving their seeds from
// one base seed so the whole sweep is reproducible from a single
// number.
func Matrix(seed int64) []Spec {
	var specs []Spec
	for ai, arrival := range ArrivalKinds() {
		for ci, chaos := range matrixChaos {
			specs = append(specs, Spec{
				Arrival: arrival,
				Chaos:   chaos,
				Seed:    seed + int64(ai*100+ci),
			}.withDefaults())
		}
	}
	return specs
}

// AttachChaos wires a fault injector into every site of a federation —
// the load process (outages, stragglers, resizes) and the provider
// pricing (spikes) — without the federation or the scheduler knowing:
// the Chaos seam lives entirely inside internal/cloud. Returns nil when
// the profile injects nothing. Per-site schedules derive from the site
// name, so map iteration order does not matter.
func AttachChaos(fed *federation.Federation, profile cloud.ChaosProfile, seed int64) *cloud.Chaos {
	if !profile.Enabled() {
		return nil
	}
	c := cloud.NewChaos(profile, seed)
	for name, site := range fed.Sites {
		sc := c.Site(name)
		site.Load.AttachChaos(sc)
		site.Provider.AttachChaos(sc)
	}
	return c
}

// DetachChaos removes any injector from every site, restoring the
// well-behaved cloud.
func DetachChaos(fed *federation.Federation) {
	for _, site := range fed.Sites {
		site.Load.AttachChaos(nil)
		site.Provider.AttachChaos(nil)
	}
}
