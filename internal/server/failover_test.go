package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/tpch"
)

// autoFailoverKnobs turns the detector on with probe settings fast
// enough for tests but a DownAfter tolerant of build-time probe misses:
// a node's handler is installed shortly after its peer's detector
// starts, and those construction-window 503s must not add up to a false
// death (which would auto-promote the wrong node before the test even
// begins).
func autoFailoverKnobs(cc *ClusterConfig) {
	cc.AutoFailover = true
	cc.ProbeInterval = 5 * time.Millisecond
	cc.SuspectAfter = 5
	cc.DownAfter = 100 // ~500ms of solid failure before a death verdict
}

// waitPeerUp blocks until srv's detector judges peer up.
func waitPeerUp(t *testing.T, srv *Server, peer string) {
	t.Helper()
	waitFor(t, 10*time.Second, func() bool { return srv.cluster.detector.Status(peer) == cluster.PeerUp }, func() string {
		return fmt.Sprintf("detector never saw %s up (currently %v)", peer, srv.cluster.detector.Status(peer))
	})
}

// TestAutoFailoverPromotesStandby kills a stub cluster's owner and
// asserts the standby promotes itself — no takeover POST anywhere —
// under a bumped epoch, counted as an automatic takeover.
func TestAutoFailoverPromotesStandby(t *testing.T) {
	tc := newTestClusterCfg(t, 2, []string{"alpha"}, func(i int, cfg *Config) {
		autoFailoverKnobs(cfg.Cluster)
	})
	owner := tc.ownerIdx(t, "alpha")
	survivor := 1 - owner
	waitPeerUp(t, tc.servers[survivor], tc.members[owner].ID)
	epochBefore := tc.servers[survivor].cluster.table.Load().Epoch()

	// SIGKILL: the owner's listener dies; its process state is irrelevant
	// from the survivor's point of view.
	tc.https[owner].Kill()

	waitFor(t, 15*time.Second, func() bool { return tc.servers[survivor].tenants["alpha"].state.Load() == cluster.Active }, func() string {
		return fmt.Sprintf("standby never auto-promoted (state %s, peer %v)",
			tenantStateName(tc.servers[survivor].tenants["alpha"].state.Load()),
			tc.servers[survivor].cluster.detector.Status(tc.members[owner].ID))
	})
	tab := tc.servers[survivor].cluster.table.Load()
	if tab.Owner("alpha").ID != tc.members[survivor].ID {
		t.Fatalf("promoted table places alpha on %q", tab.Owner("alpha").ID)
	}
	if tab.Epoch() <= epochBefore {
		t.Fatalf("promotion did not bump the epoch: %d -> %d", epochBefore, tab.Epoch())
	}

	// The survivor serves the federation directly.
	resp, body := postQueryNoRedirect(t, tc.https[survivor].URL,
		QueryRequest{Federation: "alpha", Query: "Q12", Weights: []float64{1, 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promoted node returned %d: %s", resp.StatusCode, body)
	}
	if err := tc.servers[survivor].Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAutoRebalanceReturnsTenantToRingOwner moves a federation off its
// ring owner by operator handoff, then fires a detector transition on the
// new (non-ring) owner and asserts its control loop hands the federation
// back to the live ring owner on its own — no second operator action.
func TestAutoRebalanceReturnsTenantToRingOwner(t *testing.T) {
	tc := newTestClusterCfg(t, 2, []string{"alpha"}, func(i int, cfg *Config) {
		autoFailoverKnobs(cfg.Cluster)
		cfg.Cluster.AutoRebalance = true
	})
	ringOwner := tc.ownerIdx(t, "alpha")
	other := 1 - ringOwner

	resp, err := http.Post(tc.https[ringOwner].URL+"/v1/admin/handoff?federation=alpha&target="+tc.members[other].ID, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("handoff = %d", resp.StatusCode)
	}
	if tc.ownerIdx(t, "alpha") != other {
		t.Fatal("handoff did not move alpha")
	}

	// Both peers are up and alpha sits off its ring placement: one
	// detector transition must drift it home.
	waitPeerUp(t, tc.servers[other], tc.members[ringOwner].ID)
	tc.servers[other].cluster.detector.OnTransition(tc.members[ringOwner], cluster.PeerDown, cluster.PeerUp)

	// The target serves before the source's handoff returns and counts it.
	waitFor(t, 15*time.Second, func() bool {
		return tc.servers[ringOwner].tenants["alpha"].state.Load() == cluster.Active && tc.servers[other].cluster.rebalances.Value() > 0
	}, func() string {
		return fmt.Sprintf("rebalancer never returned alpha to the ring owner (state there: %s)",
			tenantStateName(tc.servers[ringOwner].tenants["alpha"].state.Load()))
	})
	tab := tc.servers[ringOwner].cluster.table.Load()
	if got := tab.Owner("alpha").ID; got != tc.members[ringOwner].ID {
		t.Fatalf("table places alpha on %q after rebalance", got)
	}
	if got := tc.servers[other].cluster.rebalances.Value(); got != 1 {
		t.Fatalf("rebalances counter = %v, want 1", got)
	}
	for i := range tc.servers {
		if err := tc.servers[i].Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableRoutingSurvivesRestart moves a federation off its ring
// owner, restarts that former owner alone (its only peer address now
// points at a dead port, so no gossip can reach it), and asserts the
// restarted node serves the *persisted* table: correct 307s at the
// moved federation and the committed epoch, before any gossip.
func TestDurableRoutingSurvivesRestart(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	tc := newTestClusterCfg(t, 2, []string{"alpha"}, func(i int, cfg *Config) {
		cfg.Store.Dir = dirs[i]
	})
	owner := tc.ownerIdx(t, "alpha")
	target := 1 - owner

	// Move alpha off its ring owner; the override is the state that must
	// survive the owner's restart.
	resp, err := http.Post(tc.https[owner].URL+"/v1/admin/handoff?federation=alpha&target="+tc.members[target].ID, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var hr HandoffResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hr.Epoch != 2 {
		t.Fatalf("handoff = %d (%+v)", resp.StatusCode, hr)
	}

	// Restart the former owner from its store dir, with the target's
	// address replaced by a dead port: the recovered table is all it has.
	if err := tc.servers[owner].Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadPeers := append([]cluster.Member(nil), tc.members...)
	deadPeers[target].Addr = "http://127.0.0.1:1"
	reborn, err := NewWithSchedulers(Config{
		Store: StoreConfig{Dir: dirs[owner]},
		Cluster: &ClusterConfig{
			NodeID:       tc.members[owner].ID,
			Peers:        deadPeers,
			PeerTimeout:  250 * time.Millisecond,
			SyncInterval: 50 * time.Millisecond,
		},
	}, map[string]QueryScheduler{"alpha": &stubSched{}}, tpch.AllQueries)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reborn.Handler())
	defer ts.Close()

	// Before any gossip: the tenant is remote, the table is the
	// committed one, and requests 307 at the real owner.
	if st := reborn.tenants["alpha"].state.Load(); st != cluster.Remote {
		t.Fatalf("restarted former owner boots alpha %s, want remote", tenantStateName(st))
	}
	tab := reborn.cluster.table.Load()
	if tab.Epoch() != 2 || tab.Owner("alpha").ID != tc.members[target].ID {
		t.Fatalf("recovered table epoch=%d owner=%q, want 2/%q",
			tab.Epoch(), tab.Owner("alpha").ID, tc.members[target].ID)
	}
	qresp, _ := postQueryNoRedirect(t, ts.URL,
		QueryRequest{Federation: "alpha", Query: "Q12", Weights: []float64{1, 1}})
	if qresp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("restarted former owner returned %d, want 307 from the persisted table", qresp.StatusCode)
	}
	if loc := qresp.Header.Get("Location"); loc != deadPeers[target].Addr+"/v1/queries" {
		t.Fatalf("redirect Location %q, want the persisted owner", loc)
	}
	if err := reborn.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := tc.servers[target].Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestClusterHealthEndpoint checks the probe target's shape: node,
// epoch, per-active-federation replication health, and (with the
// detector on) a peers section.
func TestClusterHealthEndpoint(t *testing.T) {
	tc := newTestClusterCfg(t, 2, []string{"alpha"}, func(i int, cfg *Config) {
		autoFailoverKnobs(cfg.Cluster)
	})
	owner := tc.ownerIdx(t, "alpha")
	resp, err := http.Get(tc.https[owner].URL + "/v1/cluster/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health = %d", resp.StatusCode)
	}
	var ch ClusterHealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&ch); err != nil {
		t.Fatal(err)
	}
	if ch.Node != tc.members[owner].ID || ch.Epoch != 1 {
		t.Fatalf("health stamp node=%q epoch=%d", ch.Node, ch.Epoch)
	}
	// Replication is off in the stub cluster, so the active federation
	// reports "off" — present, because the node serves it.
	if got := ch.Replication["alpha"]; got != "off" {
		t.Fatalf("replication health %q, want off (replication disabled)", got)
	}
	if _, ok := ch.Peers[tc.members[1-owner].ID]; !ok {
		t.Fatalf("peers section missing %s: %+v", tc.members[1-owner].ID, ch.Peers)
	}
}

// TestDrainCutsHungProbe: the failure detector probes under the server's
// lifetime, so Drain cuts a probe the peer never answers instead of
// waiting out its ProbeInterval deadline, and the cut probe is no miss.
func TestDrainCutsHungProbe(t *testing.T) {
	landed := make(chan struct{})
	var once sync.Once
	peer := newTestNode(t, "", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster/health" {
			writeJSON(w, http.StatusOK, RouteUpdate{})
			return
		}
		once.Do(func() { close(landed) })
		<-r.Context().Done()
	}))
	srv, err := NewWithSchedulers(Config{Cluster: &ClusterConfig{
		NodeID:        "n0",
		Peers:         []cluster.Member{{ID: "n0", Addr: "http://127.0.0.1:1"}, {ID: "n1", Addr: peer.URL}},
		AutoFailover:  true,
		ProbeInterval: 500 * time.Millisecond,
	}}, map[string]QueryScheduler{"alpha": &stubSched{}}, tpch.AllQueries)
	if err != nil {
		t.Fatal(err)
	}
	drainAtCleanup(t, srv)
	select {
	case <-landed:
	case <-time.After(10 * time.Second):
		t.Fatal("the detector never probed the peer")
	}
	began := time.Now()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took >= 100*time.Millisecond {
		t.Fatalf("Drain took %v with a probe in flight, want it cut at once", took)
	}
	if h := srv.cluster.detector.Snapshot()["n1"]; h.Misses != 0 {
		t.Fatalf("the cut probe counted as a miss: %+v", h)
	}
}
