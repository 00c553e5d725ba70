package cluster

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeProbe is a controllable probe: per-peer pass/fail toggled at will.
type fakeProbe struct {
	mu   sync.Mutex
	fail map[string]bool
}

func (f *fakeProbe) probe(_ context.Context, peer Member) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail[peer.ID] {
		return errors.New("probe refused")
	}
	return nil
}

func (f *fakeProbe) set(id string, failing bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail[id] = failing
}

// start runs d until stop is called; stop returns once Run has.
func start(d *Detector) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		d.Run(ctx)
		close(done)
	}()
	return func() {
		cancel()
		<-done
	}
}

func waitStatus(t *testing.T, d *Detector, id string, want PeerStatus) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if d.Status(id) == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("peer %s never reached %v (currently %v)", id, want, d.Status(id))
}

func TestDetectorTransitions(t *testing.T) {
	fp := &fakeProbe{fail: map[string]bool{}}
	peers := []Member{{ID: "b", Addr: "http://b"}, {ID: "c", Addr: "http://c"}}
	d := NewDetector(DetectorConfig{
		ProbeInterval: 2 * time.Millisecond,
		SuspectAfter:  2,
		DownAfter:     4,
	}, peers, fp.probe)

	var mu sync.Mutex
	var transitions []string
	d.OnTransition = func(peer Member, from, to PeerStatus) {
		mu.Lock()
		transitions = append(transitions, peer.ID+":"+from.String()+"->"+to.String())
		mu.Unlock()
	}
	defer start(d)()

	// All healthy: stays up.
	time.Sleep(20 * time.Millisecond)
	if got := d.Status("b"); got != PeerUp {
		t.Fatalf("healthy peer b status %v, want up", got)
	}

	// Kill b's probes: suspect after 2 misses, down after 4.
	fp.set("b", true)
	waitStatus(t, d, "b", PeerSuspect)
	if !d.AnySuspect() {
		t.Fatal("AnySuspect() = false while b is suspect")
	}
	waitStatus(t, d, "b", PeerDown)
	if d.AnySuspect() {
		t.Fatal("AnySuspect() = true after b moved past suspect to down")
	}
	if got := d.Status("c"); got != PeerUp {
		t.Fatalf("peer c status %v, want up (its probes never failed)", got)
	}

	// Recovery: one answered probe snaps b straight back to up.
	fp.set("b", false)
	waitStatus(t, d, "b", PeerUp)

	mu.Lock()
	defer mu.Unlock()
	want := []string{"b:up->suspect", "b:suspect->down", "b:down->up"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestDetectorSnapshotAndUnknownPeer(t *testing.T) {
	fp := &fakeProbe{fail: map[string]bool{"b": true}}
	d := NewDetector(DetectorConfig{
		ProbeInterval: 2 * time.Millisecond,
		SuspectAfter:  1,
		DownAfter:     2,
	}, []Member{{ID: "b", Addr: "http://b"}}, fp.probe)
	defer start(d)()

	waitStatus(t, d, "b", PeerDown)
	snap := d.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d peers, want 1", len(snap))
	}
	h := snap["b"]
	if h.Status != PeerDown || h.Misses < 2 || h.Member.Addr != "http://b" {
		t.Fatalf("snapshot for b = %+v", h)
	}
	// The local node (or any unknown ID) reads as up: the detector only
	// renders judgment on peers it probes.
	if got := d.Status("self"); got != PeerUp {
		t.Fatalf("unknown peer status %v, want up", got)
	}
}

func TestDetectorProbeCallbackAndStop(t *testing.T) {
	fp := &fakeProbe{fail: map[string]bool{}}
	d := NewDetector(DetectorConfig{ProbeInterval: 2 * time.Millisecond},
		[]Member{{ID: "b"}}, fp.probe)
	var seen atomic.Int32
	d.OnProbe = func(peer Member, rtt time.Duration, err error) {
		if peer.ID != "b" || err != nil || rtt < 0 {
			t.Errorf("unexpected probe observation: peer=%s rtt=%v err=%v", peer.ID, rtt, err)
		}
		seen.Add(1)
	}
	stop := start(d)
	deadline := time.Now().Add(5 * time.Second)
	for seen.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if seen.Load() < 3 {
		t.Fatalf("observed only %d probes", seen.Load())
	}
	stop()

	// A probe in flight when Run's context ends is cut with it — Run
	// returns well inside the probe's own deadline — and is no miss.
	landed := make(chan struct{})
	var once sync.Once
	probe := func(ctx context.Context, _ Member) error {
		once.Do(func() { close(landed) })
		<-ctx.Done()
		return ctx.Err()
	}
	const interval = 200 * time.Millisecond
	d = NewDetector(DetectorConfig{ProbeInterval: interval, SuspectAfter: 1, DownAfter: 2},
		[]Member{{ID: "b"}}, probe)
	d.OnProbe = func(Member, time.Duration, error) { t.Error("a probe cut by the context was observed") }
	d.OnTransition = func(peer Member, from, to PeerStatus) {
		t.Errorf("spurious transition %s: %v -> %v", peer.ID, from, to)
	}
	stop = start(d)
	<-landed
	began := time.Now()
	stop()
	if took := time.Since(began); took >= interval/2 {
		t.Fatalf("Run returned %v after its context ended, the blocked probe was waited out", took)
	}
	if h := d.Snapshot()["b"]; h.Misses != 0 || h.Status != PeerUp {
		t.Fatalf("peer after a cut probe: %+v, want up with no misses", h)
	}
}

func TestDetectorConfigDefaults(t *testing.T) {
	var c DetectorConfig
	c.setDefaults()
	if c.ProbeInterval != time.Second {
		t.Fatalf("interval default: %v", c.ProbeInterval)
	}
	if c.SuspectAfter != 3 || c.DownAfter != 6 {
		t.Fatalf("threshold defaults: %d/%d", c.SuspectAfter, c.DownAfter)
	}
	// A down peer's probe gap doubles from the interval and stops
	// growing at 8 intervals.
	d := NewDetector(DetectorConfig{}, []Member{{ID: "b"}}, nil)
	p := d.peers["b"]
	var gaps []time.Duration
	for i := 0; i < c.DownAfter+4; i++ {
		if gap := d.record(p, errors.New("miss"), 0); p.status == PeerDown {
			gaps = append(gaps, gap)
		}
	}
	if want := []time.Duration{2 * time.Second, 4 * time.Second, 8 * time.Second, 8 * time.Second, 8 * time.Second}; !slices.Equal(gaps, want) {
		t.Fatalf("down peer's probe gaps %v, want %v", gaps, want)
	}
	// DownAfter must always exceed SuspectAfter.
	c2 := DetectorConfig{SuspectAfter: 5, DownAfter: 2}
	c2.setDefaults()
	if c2.DownAfter <= c2.SuspectAfter {
		t.Fatalf("DownAfter %d not above SuspectAfter %d", c2.DownAfter, c2.SuspectAfter)
	}
}
