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
}

// maxBackoff caps the probe gap for a down peer, in ProbeIntervals.
// Probing a corpse backs off exponentially — interval, 2×, 4×, 8× — so
// a long outage costs a trickle of probes, not a steady hammer; one
// answered probe resets the cadence.
const maxBackoff = 8

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

	// mu guards the peer states; the map itself is fixed at NewDetector.
	mu    sync.Mutex
	peers map[string]*peerState
}

type peerState struct {
	member Member
	status PeerStatus
	misses int
	rtt    time.Duration
	// gap is the current probe interval; grows exponentially while the
	// peer is down.
	gap time.Duration
}

// NewDetector builds a detector over peers (the probing node excluded
// by the caller). Run probes them.
func NewDetector(cfg DetectorConfig, peers []Member, probe Probe) *Detector {
	cfg.setDefaults()
	d := &Detector{
		cfg:   cfg,
		probe: probe,
		peers: make(map[string]*peerState, len(peers)),
	}
	for _, m := range peers {
		d.peers[m.ID] = &peerState{member: m, gap: cfg.ProbeInterval}
	}
	return d
}

// Run probes every peer, one goroutine each, until ctx ends, and
// returns once those goroutines have. Call it once.
func (d *Detector) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range d.peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.watch(ctx, p)
		}()
	}
	wg.Wait()
}

// watch is one peer's probe loop. A probe cut short because ctx ended
// is not a miss: the detector is stopping, not the peer.
func (d *Detector) watch(ctx context.Context, p *peerState) {
	timer := time.NewTimer(d.cfg.ProbeInterval)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		probeCtx, cancel := context.WithTimeout(ctx, d.cfg.ProbeInterval)
		began := time.Now()
		err := d.probe(probeCtx, p.member)
		cancel()
		if ctx.Err() != nil {
			return
		}
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
		p.gap = d.cfg.ProbeInterval
	} else {
		p.misses++
		switch {
		case p.misses >= d.cfg.DownAfter:
			p.status = PeerDown
			// Exponential backoff while dead, capped: the detector keeps
			// watching for a comeback without hammering the corpse.
			p.gap = min(2*p.gap, maxBackoff*d.cfg.ProbeInterval)
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
		}
	}
	return out
}
