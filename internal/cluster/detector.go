package cluster

import (
	"context"
	"sync"
	"time"
)

// PeerStatus is the failure detector's judgment of one peer.
type PeerStatus int32

const (
	// PeerUp: the peer answered its most recent probe.
	PeerUp PeerStatus = iota
	// PeerSuspect: SuspectAfter consecutive probes went unanswered.
	// Suspicion is deliberately a distinct state from death: rebalancing
	// pauses on it, but nothing is promoted yet.
	PeerSuspect
	// PeerDown: DownAfter consecutive probes went unanswered — the
	// detector's confirmed-death verdict, the trigger for auto-failover.
	PeerDown
)

func (s PeerStatus) String() string {
	switch s {
	case PeerUp:
		return "up"
	case PeerSuspect:
		return "suspect"
	case PeerDown:
		return "down"
	}
	return "unknown"
}

// DetectorConfig tunes the probe cadence and the suspicion thresholds.
type DetectorConfig struct {
	// ProbeInterval is the gap between probes to a responsive peer and
	// the deadline of each probe round-trip (default 1s).
	ProbeInterval time.Duration
	// SuspectAfter is the consecutive missed probes before a peer turns
	// suspect (default 3).
	SuspectAfter int
	// DownAfter is the consecutive missed probes before a suspect peer
	// is declared down (default 2×SuspectAfter).
	DownAfter int
	// MaxBackoff caps the probe gap for a down peer. Probing a corpse
	// backs off exponentially — interval, 2×, 4×, … — so a long outage
	// costs a trickle of probes, not a steady hammer; one answered probe
	// resets the cadence (default 8×ProbeInterval).
	MaxBackoff time.Duration
}

func (c *DetectorConfig) setDefaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.DownAfter <= c.SuspectAfter {
		c.DownAfter = 2 * c.SuspectAfter
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 8 * c.ProbeInterval
	}
}

// Probe checks one peer's liveness; any error counts as a miss. The
// server wires this to GET /v1/cluster/health, which doubles as the
// carrier for the peer's replication-health report.
type Probe func(ctx context.Context, peer Member) error

// PeerHealth is one peer's externally visible detector state.
type PeerHealth struct {
	Member Member
	Status PeerStatus
	// Misses is the current consecutive-failure count.
	Misses int
	// RTT is the last successful probe's round trip (0 before one).
	RTT time.Duration
	// LastUp is when the peer last answered (zero before it ever has).
	LastUp time.Time
}

// Detector is a heartbeat/suspicion failure detector: one goroutine per
// peer probes at ProbeInterval, counts consecutive misses, and walks
// the peer through up → suspect → down. It is transport-agnostic — the
// probe is injected — so it unit-tests without a server.
type Detector struct {
	cfg   DetectorConfig
	probe Probe

	// OnTransition, if set, is invoked (outside locks, from the peer's
	// probe goroutine) on every status change.
	OnTransition func(peer Member, from, to PeerStatus)
	// OnProbe, if set, observes every probe outcome — the metrics hook
	// for RTT histograms.
	OnProbe func(peer Member, rtt time.Duration, err error)

	mu    sync.Mutex
	peers map[string]*peerState

	stop    chan struct{}
	done    sync.WaitGroup
	started bool
}

type peerState struct {
	member Member
	status PeerStatus
	misses int
	rtt    time.Duration
	lastUp time.Time
	// gap is the current probe interval; grows exponentially while the
	// peer is down.
	gap time.Duration
}

// NewDetector builds a detector over peers (the probing node excluded
// by the caller). Call Start to begin probing.
func NewDetector(cfg DetectorConfig, peers []Member, probe Probe) *Detector {
	cfg.setDefaults()
	d := &Detector{
		cfg:   cfg,
		probe: probe,
		peers: make(map[string]*peerState, len(peers)),
		stop:  make(chan struct{}),
	}
	for _, m := range peers {
		d.peers[m.ID] = &peerState{member: m, gap: cfg.ProbeInterval}
	}
	return d
}

// Start launches one probe goroutine per peer. Idempotent.
func (d *Detector) Start() {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	states := make([]*peerState, 0, len(d.peers))
	for _, p := range d.peers {
		states = append(states, p)
	}
	d.mu.Unlock()
	for _, p := range states {
		d.done.Add(1)
		go d.watch(p)
	}
}

// Stop halts probing and waits for the probe goroutines to exit.
func (d *Detector) Stop() {
	d.mu.Lock()
	if !d.started {
		d.mu.Unlock()
		return
	}
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	d.mu.Unlock()
	d.done.Wait()
}

// watch is one peer's probe loop.
func (d *Detector) watch(p *peerState) {
	defer d.done.Done()
	timer := time.NewTimer(d.cfg.ProbeInterval)
	defer timer.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-timer.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), d.cfg.ProbeInterval)
		began := time.Now()
		err := d.probe(ctx, p.member)
		cancel()
		rtt := time.Since(began)
		if d.OnProbe != nil {
			d.OnProbe(p.member, rtt, err)
		}
		timer.Reset(d.record(p, err, rtt))
	}
}

// record folds one probe outcome into the peer's state, fires the
// transition hook, and returns the gap until the next probe.
func (d *Detector) record(p *peerState, err error, rtt time.Duration) time.Duration {
	d.mu.Lock()
	from := p.status
	if err == nil {
		p.misses = 0
		p.status = PeerUp
		p.rtt = rtt
		p.lastUp = time.Now()
		p.gap = d.cfg.ProbeInterval
	} else {
		p.misses++
		switch {
		case p.misses >= d.cfg.DownAfter:
			p.status = PeerDown
			// Exponential backoff while dead, capped: the detector keeps
			// watching for a comeback without hammering the corpse.
			if p.gap *= 2; p.gap > d.cfg.MaxBackoff {
				p.gap = d.cfg.MaxBackoff
			}
		case p.misses >= d.cfg.SuspectAfter:
			p.status = PeerSuspect
		}
	}
	to := p.status
	gap := p.gap
	d.mu.Unlock()
	if to != from && d.OnTransition != nil {
		d.OnTransition(p.member, from, to)
	}
	return gap
}

// Status returns the detector's current judgment of one peer; unknown
// IDs (including the local node) read as up.
func (d *Detector) Status(id string) PeerStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.peers[id]; ok {
		return p.status
	}
	return PeerUp
}

// AnySuspect reports whether any peer is currently in the suspect
// state — the rebalancer's pause condition: suspicion means the member
// set is unsettled, and moving tenants under it risks moving them twice.
func (d *Detector) AnySuspect() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range d.peers {
		if p.status == PeerSuspect {
			return true
		}
	}
	return false
}

// Snapshot returns every peer's current health, for observability
// surfaces (metrics gauges, the cluster-status CLI).
func (d *Detector) Snapshot() map[string]PeerHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]PeerHealth, len(d.peers))
	for id, p := range d.peers {
		out[id] = PeerHealth{
			Member: p.member,
			Status: p.status,
			Misses: p.misses,
			RTT:    p.rtt,
			LastUp: p.lastUp,
		}
	}
	return out
}
