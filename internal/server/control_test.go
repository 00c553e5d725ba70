package server

import (
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/cluster"
)

// waitPasses blocks until srv's control loop has completed n passes that
// began after the call, each with no step of an earlier pass still
// running: every step the first n-1 of them launched has returned.
func waitPasses(t testing.TB, srv *Server, n uint64) {
	t.Helper()
	want := srv.cluster.passes.Load() + n + 1
	waitFor(t, 10*time.Second, func() bool { return srv.cluster.passes.Load() >= want }, func() string {
		return fmt.Sprintf("control loop at pass %d, want %d", srv.cluster.passes.Load(), want)
	})
}

// TestFailoverRetriesFailedPromotion: the standby's first activation
// after the owner dies fails (its shards do not open). The owner stays
// down, so a later pass retries it, and once the fault clears the standby
// serves — counted as one automatic takeover.
func TestFailoverRetriesFailedPromotion(t *testing.T) {
	tc := newTestClusterCfg(t, 2, []string{"alpha"}, func(_ int, cfg *Config) {
		autoFailoverKnobs(cfg.Cluster)
		cfg.Cluster.SyncInterval = 20 * time.Millisecond
	})
	owner := tc.ownerIdx(t, "alpha")
	srv := tc.servers[1-owner]
	sched := srv.tenants["alpha"].sched.(*stubSched)
	waitPeerUp(t, srv, tc.members[owner].ID)

	sched.setFailOpen(errors.New("injected: activation failed"))
	tc.https[owner].Kill()
	waitFor(t, 15*time.Second, func() bool { return sched.opened() > 0 },
		func() string { return "the standby never tried to promote" })
	sched.setFailOpen(nil)
	tn := srv.tenants["alpha"]
	waitFor(t, 10*time.Second, func() bool { return tn.state.Load() == cluster.Active }, func() string {
		return fmt.Sprintf("standby is %s after a failed promotion, want it retried", tenantStateName(tn.state.Load()))
	})
	if got := srv.cluster.autoTakeovers.Value(); got != 1 {
		t.Fatalf("auto-takeovers = %v, want 1", got)
	}
}

// TestFailoverEligibilityGate: the owner's last report had the
// federation's stream arming, or degraded, so the standby's replica may
// miss acked writes. After the owner dies the standby never promotes, the
// refusal is counted once for the death however many passes see it, and
// an operator takeover still succeeds.
func TestFailoverEligibilityGate(t *testing.T) {
	for _, report := range []string{"arming", "degraded"} {
		t.Run(report, func(t *testing.T) {
			tc := newTestClusterCfg(t, 2, []string{"alpha"}, func(_ int, cfg *Config) {
				autoFailoverKnobs(cfg.Cluster)
				cfg.Cluster.Replicate = true
				cfg.Cluster.SyncInterval = 20 * time.Millisecond
			})
			owner := tc.ownerIdx(t, "alpha")
			srv := tc.servers[1-owner]
			real := tc.servers[owner].Handler()
			h := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/cluster/health" {
					writeJSON(w, http.StatusOK, ClusterHealthResponse{Node: tc.members[owner].ID, Replication: map[string]string{"alpha": report}})
					return
				}
				real.ServeHTTP(w, r)
			}))
			tc.late[owner].h.Store(&h)
			cs := srv.cluster
			waitFor(t, 10*time.Second, func() bool {
				cs.peerMu.Lock()
				defer cs.peerMu.Unlock()
				return cs.peerRepl[tc.members[owner].ID]["alpha"] == report
			}, func() string { return "the standby never cached the owner's report" })

			tc.https[owner].Kill()
			waitFor(t, 15*time.Second, func() bool { return cs.detector.Status(tc.members[owner].ID) == cluster.PeerDown },
				func() string { return "the detector never judged the owner down" })
			waitPasses(t, srv, 5)
			if st := srv.tenants["alpha"].state.Load(); st != cluster.Remote {
				t.Fatalf("standby is %s with the owner's stream %s, want remote", tenantStateName(st), report)
			}
			if got := cs.autoBlocked.Value(); got != 1 {
				t.Fatalf("midas_cluster_auto_takeovers_blocked_total = %v, want 1", got)
			}
			if status, body := postStatus(t, tc.https[1-owner].URL+"/v1/admin/takeover?federation=alpha"); status != http.StatusOK {
				t.Fatalf("operator takeover = %d: %s", status, body)
			}
			if got := cs.autoTakeovers.Value(); got != 0 {
				t.Fatalf("auto-takeovers = %v, want 0", got)
			}
		})
	}
}

// TestClusterNoHeadOfLineBlocking: one owner, two federations with
// different standbys, one of which accepts the stream's connection and
// then never answers. The other federation's standby is armed within ten
// intervals all the same: the hung sync holds only its own federation.
func TestClusterNoHeadOfLineBlocking(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	const every = 100 * time.Millisecond
	ids := []cluster.Member{{ID: "n0"}, {ID: "n1"}, {ID: "n2"}}
	ring, err := cluster.NewRing(ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab := cluster.NewTable(ring)
	standbyOf := func(fed string) string { m, _ := tab.Standby(fed); return m.ID }
	hung, live := "fed0", ""
	for i := 1; live == ""; i++ {
		name := fmt.Sprintf("fed%d", i)
		if tab.Owner(name).ID == tab.Owner(hung).ID && standbyOf(name) != standbyOf(hung) {
			live = name
		}
	}
	owner, stuck := int(tab.Owner(hung).ID[1]-'0'), int(standbyOf(hung)[1]-'0')

	late := make([]*lateHandler, len(ids))
	nodes := make([]*testNode, len(ids))
	members := make([]cluster.Member, len(ids))
	for i := range ids {
		late[i] = &lateHandler{}
		nodes[i] = newTestNode(t, "", late[i])
		members[i] = cluster.Member{ID: ids[i].ID, Addr: nodes[i].URL}
	}
	entered, stop := make(chan struct{}, 1), make(chan struct{})
	servers := make([]*Server, len(ids))
	// The owner boots last, so both standbys answer its first pass.
	for _, i := range []int{(owner + 1) % 3, (owner + 2) % 3, owner} {
		var specs []FederationSpec
		for _, name := range []string{hung, live} {
			spec := chaosPaperSpec()
			spec.Name = name
			specs = append(specs, spec)
		}
		srv, err := New(Config{Federations: specs, Store: StoreConfig{Dir: t.TempDir()}, Cluster: &ClusterConfig{
			NodeID: members[i].ID, Peers: members, Replicate: true,
			SyncInterval: every, PeerTimeout: 3 * time.Second,
		}})
		if err != nil {
			t.Fatal(err)
		}
		drainAtCleanup(t, srv)
		servers[i] = srv
		h := srv.Handler()
		if i == stuck {
			real := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == replStreamPath && r.URL.Query().Get("federation") == hung {
					select {
					case entered <- struct{}{}:
					default:
					}
					select {
					case <-r.Context().Done():
					case <-stop:
					}
					return
				}
				real.ServeHTTP(w, r)
			})
		}
		late[i].h.Store(&h)
	}
	t.Cleanup(func() { close(stop) }) // before the nodes drain and close
	booted := time.Now()
	src := servers[owner]
	waitFor(t, 10*every, func() bool { return src.cluster.replHealth(src.tenants[live]) == "streaming" }, func() string {
		return fmt.Sprintf("%s is %s %v after the owner booted, behind %s's hung standby", live,
			src.cluster.replHealth(src.tenants[live]), time.Since(booted), hung)
	})
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the hung standby was never dialled")
	}
	if got := src.cluster.replHealth(src.tenants[hung]); got == "streaming" {
		t.Fatalf("%s streams to a standby that never answers", hung)
	}
}
