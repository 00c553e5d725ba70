package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/tpch"
)

// newActivationPair boots two real, non-replicating nodes hosting spec,
// each on the store directory dirs[i] ("" runs in memory), and returns
// them with the index of the owner.
func newActivationPair(t *testing.T, spec FederationSpec, dirs [2]string) (servers []*Server, nodes []*testNode, owner int) {
	t.Helper()
	late := []*lateHandler{{}, {}}
	var members []cluster.Member
	for i := range late {
		nodes = append(nodes, newTestNode(t, "", late[i]))
		members = append(members, cluster.Member{ID: fmt.Sprintf("n%d", i), Addr: nodes[i].URL})
	}
	for i := range late {
		srv, err := New(Config{
			Federations: []FederationSpec{spec},
			Store:       StoreConfig{Dir: dirs[i]},
			Cluster:     &ClusterConfig{NodeID: members[i].ID, Peers: members, PeerTimeout: 30 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		drainAtCleanup(t, srv)
		h := srv.Handler()
		late[i].h.Store(&h)
		servers = append(servers, srv)
	}
	owner = -1
	for i, srv := range servers {
		if srv.tenants[spec.Name].state.Load() == cluster.Active {
			owner = i
		}
	}
	if owner < 0 {
		t.Fatal("no owner")
	}
	return servers, nodes, owner
}

// postStatus POSTs a bodiless request and returns its status and body.
func postStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// observationBits renders every held observation of q's history on srv,
// bit for bit, one string per observation.
func observationBits(t *testing.T, srv *Server, q tpch.QueryID) []string {
	t.Helper()
	h := srv.tenants["paper"].sched.History(q)
	if h == nil {
		t.Fatalf("%s holds no %v history", srv.cluster.self.ID, q)
	}
	snap := h.Snapshot()
	out := make([]string, 0, snap.Len()-snap.Base())
	for i := snap.Base(); i < snap.Len(); i++ {
		var b strings.Builder
		o := snap.At(i)
		for _, v := range append(append([]float64(nil), o.X...), o.Costs...) {
			fmt.Fprintf(&b, "%016x", math.Float64bits(v))
		}
		out = append(out, b.String())
	}
	return out
}

// TestClusterTakeoverBootstrapsLikeWarmOwner: a standby that takes a
// federation over without a replica bootstraps it from nothing, and
// must train on exactly the observations the owner bootstrapped at
// boot — the same queries in the same order, on the same clean cloud —
// or the two nodes decide differently from the same spec.
func TestClusterTakeoverBootstrapsLikeWarmOwner(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	for _, tc := range []struct {
		name string
		spec FederationSpec
	}{
		{"sorted queries", FederationSpec{Queries: []string{"Q12", "Q13"}, Bootstrap: 8}},
		{"unsorted queries", FederationSpec{Queries: []string{"Q13", "Q12"}, Bootstrap: 8}},
		{"chaos", FederationSpec{Queries: []string{"Q12"}, Bootstrap: 12, Chaos: "mixed"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Name, spec.SF, spec.NodeChoices = "paper", 0.05, []int{1, 2}
			servers, nodes, owner := newActivationPair(t, spec, [2]string{})
			standby := 1 - owner
			queries, err := spec.queries()
			if err != nil {
				t.Fatal(err)
			}
			// The takeover's table exchange demotes the owner, which drops
			// its histories: read them first.
			want := make(map[tpch.QueryID][]string)
			for _, q := range queries {
				want[q] = observationBits(t, servers[owner], q)
			}
			if status, body := postStatus(t, nodes[standby].URL+"/v1/admin/takeover?federation=paper"); status != http.StatusOK {
				t.Fatalf("takeover = %d: %s", status, body)
			}
			matched, total := 0, 0
			for _, q := range queries {
				got := observationBits(t, servers[standby], q)
				if len(got) != len(want[q]) {
					t.Fatalf("%v: standby bootstrapped %d observations, owner %d", q, len(got), len(want[q]))
				}
				for i := range got {
					if got[i] == want[q][i] {
						matched++
					}
				}
				total += len(got)
			}
			if matched != total {
				t.Fatalf("%d of %d bootstrap observations match the warm owner's", matched, total)
			}
		})
	}
}

// TestClusterFailedActivationReleasesShards: an activation that fails
// on a corrupt shard header — by takeover, or by a handoff's activate,
// which takes the remote tenant as it finds it — leaves the tenant remote
// with nothing open, so the node goes on taking the federation's replica
// batches.
func TestClusterFailedActivationReleasesShards(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	spec := FederationSpec{Name: "paper", SF: 0.05, NodeChoices: []int{1, 2}, Bootstrap: 7, Queries: []string{"Q12", "Q13"}}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	servers, nodes, owner := newActivationPair(t, spec, dirs)
	standby := 1 - owner
	q13 := filepath.Join(dirs[standby], "paper", "Q13")
	if err := os.MkdirAll(q13, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(q13, "snapshot.json"), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	url := nodes[standby].URL + "/v1/admin/"
	tn := servers[standby].tenants["paper"]
	for _, tc := range []struct {
		name     string
		activate func() (int, string)
	}{
		{"takeover", func() (int, string) { return postStatus(t, url+"takeover?federation=paper") }},
		{"handoff", func() (int, string) { return postStatus(t, url+"handoff/activate?federation=paper&epoch=2") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if status, body := tc.activate(); status != http.StatusInternalServerError {
				t.Fatalf("activation on a corrupt Q13 header = %d: %s", status, body)
			}
			if st := tn.state.Load(); st != cluster.Remote {
				t.Errorf("tenant is %s after the failed activation, want remote", tenantStateName(st))
			}
			if tn.sched.History(tpch.QueryQ12) != nil {
				t.Error("Q12's history stayed open after the failed activation")
			}
			if _, err := tn.store.AppendReplicaFrames("Q12", 0, nil, true); err != nil {
				t.Errorf("replica batch after the failed activation: %v", err)
			}
		})
	}
}

// TestClusterHandoffConflictIs409: a handoff refused because another
// one of the same federation is in flight — the first waiting on its
// activate, the source sending — is a conflict.
func TestClusterHandoffConflictIs409(t *testing.T) {
	tc := newTestCluster(t, 2, []string{"alpha"})
	owner := tc.ownerIdx(t, "alpha")
	target := 1 - owner
	gate := gateActivate(t, tc, target)
	first := startHandoff(tc, "alpha", owner, target)
	gate.await(t)
	if st := tc.servers[owner].tenants["alpha"].state.Load(); st != cluster.Sending {
		t.Fatalf("source is %s at the activate, want sending", tenantStateName(st))
	}
	handoff := tc.https[owner].URL + "/v1/admin/handoff?federation=alpha&target=" + tc.members[target].ID
	if status, body := postStatus(t, handoff); status != http.StatusConflict {
		t.Errorf("second handoff during the activate = %d: %s, want 409", status, body)
	}
	gate.decide(true)
	if status := <-first; status != http.StatusOK {
		t.Fatalf("first handoff = %d", status)
	}
}
