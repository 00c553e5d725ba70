package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/tpch"
)

// This file is the cluster half of the chaos harness: each test injects
// one failure mode the field actually produces — a target dying
// mid-handoff, a gossip partition, an owner SIGKILLed under replay load
// — and asserts the two invariants the cluster promises: zero
// acked-write loss, and decisions that stay byte-identical to an
// unchaosed control (PR 8's determinism invariant).

// chaosPaperSpec is the shared real-stack federation: small enough to
// calibrate quickly, real enough that decisions come from the live
// DREAM model rather than a stub.
func chaosPaperSpec() FederationSpec {
	return FederationSpec{
		Name:        "paper",
		SF:          0.05,
		NodeChoices: []int{1, 2},
		Bootstrap:   12,
		Queries:     []string{"Q12"},
	}
}

// newReplicatedPair builds two real nodes with synchronous WAL
// replication armed for Q12 and returns them with the current owner
// index. Callers kill nodes with testNode.Kill.
func newReplicatedPair(t *testing.T) (servers []*Server, https []*testNode, members []cluster.Member, owner int) {
	servers, https, members, owner, _ = newReplicatedPairCfg(t, nil)
	return servers, https, members, owner
}

// newReplicatedPairCfg is newReplicatedPair with a cluster-config hook
// (the auto-failover chaos tests turn the detector on and speed up its
// probes) and the swappable handlers returned for fault injection.
func newReplicatedPairCfg(t *testing.T, mutate func(*ClusterConfig)) (servers []*Server, https []*testNode, members []cluster.Member, owner int, late []*lateHandler) {
	t.Helper()
	return newReplicatedNodes(t, chaosPaperSpec(), 2, mutate)
}

// newReplicatedNodes is newReplicatedPairCfg over n nodes hosting spec,
// armed for every query it serves.
func newReplicatedNodes(t *testing.T, spec FederationSpec, n int, mutate func(*ClusterConfig)) (servers []*Server, https []*testNode, members []cluster.Member, owner int, late []*lateHandler) {
	t.Helper()
	for i := 0; i < n; i++ {
		late = append(late, &lateHandler{})
		ts := newTestNode(t, "", late[i])
		https = append(https, ts)
		members = append(members, cluster.Member{ID: fmt.Sprintf("n%d", i), Addr: ts.URL})
	}
	for i := 0; i < n; i++ {
		ccfg := &ClusterConfig{
			NodeID: members[i].ID, Peers: members,
			Replicate:    true,
			SyncInterval: 50 * time.Millisecond,
			PeerTimeout:  30 * time.Second,
		}
		if mutate != nil {
			mutate(ccfg)
		}
		srv, err := New(Config{
			Federations: []FederationSpec{spec},
			Store:       StoreConfig{Dir: t.TempDir()},
			Cluster:     ccfg,
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
	waitStreaming(t, servers[owner], spec.Name)
	return servers, https, members, owner, late
}

// waitStreaming blocks until every shard of fed on its owner srv is
// replicating.
func waitStreaming(t testing.TB, srv *Server, fed string) {
	t.Helper()
	waitFor(t, 15*time.Second, func() bool { return srv.cluster.replHealth(srv.tenants[fed]) == "streaming" },
		func() string { return "replication never armed" })
}

// chaosSubmit posts one Q12 request without following redirects and
// requires a 200.
func chaosSubmit(t *testing.T, url string) QueryResponse {
	t.Helper()
	resp, body := postQueryNoRedirect(t, url, QueryRequest{Federation: "paper", Query: "Q12", Weights: []float64{1, 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	return qr
}

// chaosHistLen reads the observation count for paper/Q12 at a node.
func chaosHistLen(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/v1/history/Q12?federation=paper&limit=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HistoryResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	return hr.Len
}

// TestChaosKillTargetMidHandoff kills the handoff target's control
// endpoint at the activate that would commit the move, while the target
// still answers /v1/cluster. The source cannot know whether an activate
// of its will yet run there, so it neither serves nor redirects: it
// reports the outcome unknown and holds the federation — no second
// owner, no epoch moved, a submission past its deadline answered 503.
// Once the endpoint is back, the background settle re-sends the activate
// and the whole move commits, on one owner.
func TestChaosKillTargetMidHandoff(t *testing.T) {
	tc := newTestClusterCfg(t, 2, []string{"alpha"}, func(_ int, cfg *Config) {
		cfg.Cluster.SyncInterval = 20 * time.Millisecond
	})
	owner := tc.ownerIdx(t, "alpha")
	target := 1 - owner

	// "Kill" the target for admin traffic: every handoff endpoint
	// answers like a dead TCP peer would (refused), while the data
	// plane keeps routing so we can observe the aftermath.
	real := tc.servers[target].Handler()
	var dead atomic.Bool
	dead.Store(true)
	wrapped := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() && strings.HasPrefix(r.URL.Path, "/v1/admin/handoff") {
			http.Error(w, "injected: node down", http.StatusBadGateway)
			return
		}
		real.ServeHTTP(w, r)
	}))
	tc.late[target].h.Store(&wrapped)

	resp, err := http.Post(tc.https[owner].URL+"/v1/admin/handoff?federation=alpha&target="+tc.members[target].ID, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK || !strings.Contains(string(body), "outcome unknown") {
		t.Fatalf("handoff to a dead target = %d %s, want the outcome unknown", resp.StatusCode, body)
	}

	// Nothing moved: the source holds, the target never materialized the
	// tenant, the epoch stayed.
	if st := tc.servers[owner].tenants["alpha"].state.Load(); st != cluster.Sending {
		t.Fatalf("source tenant is %s with the outcome unknown, want sending", tenantStateName(st))
	}
	if st := tc.servers[target].tenants["alpha"].state.Load(); st != cluster.Remote {
		t.Fatalf("target tenant is %s with its control endpoint dead, want remote", tenantStateName(st))
	}
	for i := range tc.https {
		if cr := getClusterTable(t, tc.https[i].URL); cr.Epoch != 1 {
			t.Fatalf("node %d epoch %d with the outcome unknown, want 1", i, cr.Epoch)
		}
	}
	if res := <-submitAsync(tc.https[owner].URL, 50); res.err != nil || res.status != http.StatusServiceUnavailable {
		t.Fatalf("submission to the holding source = %d %v, want 503", res.status, res.err)
	}

	// The endpoint comes back: the re-sent activate commits the move.
	dead.Store(false)
	src := tc.servers[owner].tenants["alpha"]
	waitFor(t, 10*time.Second, func() bool { return src.state.Load() == cluster.Remote },
		func() string { return "the source never settled the handoff" })
	if st := tc.servers[target].tenants["alpha"].state.Load(); st != cluster.Active {
		t.Fatalf("target is %s after the settled handoff, want active", tenantStateName(st))
	}
	res := <-submitAsync(tc.https[owner].URL, 0)
	if res.err != nil || res.status != http.StatusTemporaryRedirect || res.location != tc.members[target].Addr+"/v1/queries" {
		t.Fatalf("old owner answered %d to %q (%v), want a 307 to the target", res.status, res.location, res.err)
	}
	res = <-submitAsync(tc.https[target].URL, 0)
	if res.err != nil || res.status != http.StatusOK || res.qr.Node != tc.members[target].ID || res.qr.Epoch < 2 {
		t.Fatalf("new owner answered %d from %q at epoch %d (%v)", res.status, res.qr.Node, res.qr.Epoch, res.err)
	}
}

// killAfterHandoffAck is the source's end of a replication stream that
// kills the target — listener and every connection, the stream's own
// included — the moment the ack of the first sync batch, a handoff's
// first shard, has been read: one shard across, the rest still to come.
type killAfterHandoffAck struct {
	net.Conn
	target  *testNode
	pending bool // a handoff batch is out, its ack not yet read
	killed  bool
}

func (c *killAfterHandoffAck) Write(p []byte) (int, error) {
	// A batch's first write starts with its header; frames that follow in
	// a write of their own start with a frame's length word, far from 1.
	if !c.killed && len(p) >= replBatchHeader && p[4] == replSync {
		c.pending = true
	}
	return c.Conn.Write(p)
}

func (c *killAfterHandoffAck) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.pending && err == nil {
		c.pending, c.killed = false, true
		c.target.Kill()
	}
	return n, err
}

// TestChaosKillTargetMidShip kills the handoff target with one of two
// shards received — earlier than TestChaosKillTargetMidHandoff's
// activate, after bytes have crossed. The source reports failure, stays the one
// active owner at the old epoch and keeps serving; once the target is
// back the control loop re-arms it as standby, and the same handoff retried
// completes with the target's histories equal to the source's: each
// transfer's rebase replaced the copy the dead one left, it did not merge
// with it.
func TestChaosKillTargetMidShip(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	spec := chaosPaperSpec()
	spec.Queries = []string{"Q12", "Q13"}
	servers, https, members, owner, _ := newReplicatedNodes(t, spec, 2, nil)
	target := 1 - owner
	submit := func(query string) {
		t.Helper()
		resp, body := postQueryNoRedirect(t, https[owner].URL, QueryRequest{Federation: "paper", Query: query, Weights: []float64{1, 1}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %s: %d %s", query, resp.StatusCode, body)
		}
	}
	handoff := func() (int, string) {
		t.Helper()
		resp, err := http.Post(https[owner].URL+"/v1/admin/handoff?federation=paper&target="+members[target].ID, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	for _, q := range spec.Queries {
		submit(q)
		submit(q)
	}

	// The acked writes left the stream open to the target, the standby of
	// a pair; the handoff rides the same connection.
	st := servers[owner].cluster.streams["paper"]
	st.mu.Lock()
	if st.conn == nil {
		st.mu.Unlock()
		t.Fatal("no open stream to wrap after acked writes")
	}
	tap := &killAfterHandoffAck{Conn: st.conn, target: https[target]}
	st.conn = tap
	st.mu.Unlock()

	status, body := handoff()
	if status == http.StatusOK || !strings.Contains(body, "ship Q13") {
		t.Fatalf("handoff to a target that died after the first shard = %d %s, want a failure shipping the second", status, body)
	}
	st.mu.Lock() // the tap is only ever touched under it
	killed := tap.killed
	st.mu.Unlock()
	if !killed {
		t.Fatal("fault injection never fired")
	}
	if st := servers[owner].tenants["paper"].state.Load(); st != cluster.Active {
		t.Fatalf("source tenant is %s after the failed handoff, want active", tenantStateName(st))
	}
	if cr := getClusterTable(t, https[owner].URL); cr.Epoch != 1 || cr.Placements["paper"].Owner != members[owner].ID {
		t.Fatalf("source table after the failed handoff: epoch %d, owner %q", cr.Epoch, cr.Placements["paper"].Owner)
	}
	// Still serving — and moving on from what the dead target holds.
	for _, q := range spec.Queries {
		submit(q)
	}

	// Revive the target on its data directory and address. It comes back
	// remote; the control loop finds it and re-arms it as standby.
	if err := servers[target].Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	cfg := servers[target].cfg
	cfg.Metrics = nil // a registry backs one Server
	reborn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	newTestNode(t, https[target].Listener.Addr().String(), reborn.Handler())
	if st := reborn.tenants["paper"].state.Load(); st != cluster.Remote {
		t.Fatalf("revived target is %s, want remote", tenantStateName(st))
	}
	waitStreaming(t, servers[owner], "paper")
	submit("Q12")

	want := make(map[tpch.QueryID]*core.Snapshot)
	for _, q := range servers[owner].tenants["paper"].queries {
		want[q] = servers[owner].tenants["paper"].sched.History(q).Snapshot()
	}
	if status, body := handoff(); status != http.StatusOK {
		t.Fatalf("retried handoff = %d: %s", status, body)
	}
	if st := reborn.tenants["paper"].state.Load(); st != cluster.Active {
		t.Fatalf("target is %s after the retried handoff, want active", tenantStateName(st))
	}
	for q, src := range want {
		got := reborn.tenants["paper"].sched.History(q)
		if got == nil || got.Len() != src.Len() || got.Base() != src.Base() {
			t.Fatalf("%v on the target is not the source's [%d, %d)", q, src.Base(), src.Len())
		}
		for i := src.Base(); i < src.Len(); i++ {
			if !reflect.DeepEqual(got.At(i), src.At(i)) {
				t.Fatalf("%v observation %d differs between target and source", q, i)
			}
		}
	}
	for _, srv := range []*Server{servers[owner], reborn} {
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosGossipPartitionDuringHandoff partitions a bystander node
// away from gossip while ownership moves between the other two. While
// partitioned the bystander serves from a stale table — which must
// still reach the data via a redirect chain, never lose a request —
// and within healBound of the heal the retried exchange converges it:
// exactly one active owner, all tables agreeing.
func TestChaosGossipPartitionDuringHandoff(t *testing.T) {
	const (
		syncInterval = 50 * time.Millisecond
		healBound    = 40 * syncInterval
	)
	tc := newTestClusterCfg(t, 3, []string{"alpha"}, func(_ int, cfg *Config) { cfg.Cluster.SyncInterval = syncInterval })
	owner := tc.ownerIdx(t, "alpha")
	target := (owner + 1) % 3
	third := 3 - owner - target

	// Partition: every gossip exchange (route post) is dropped, as a
	// switch dropping control-plane traffic would; data-plane requests
	// still flow. The third node's inbound posts are the partition
	// proper. The other two refuse posts as well because an exchange is
	// answered with the receiver's table: the third node's own periodic
	// exchanges would otherwise pull the new table through the
	// partition. The handoff itself needs no exchange — both ends apply
	// the override.
	var partitioned atomic.Bool
	partitioned.Store(true)
	for i := range tc.servers {
		real := tc.servers[i].Handler()
		wrapped := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if partitioned.Load() && r.URL.Path == "/v1/admin/route" {
				http.Error(w, "injected: partitioned", http.StatusServiceUnavailable)
				return
			}
			real.ServeHTTP(w, r)
		}))
		tc.late[i].h.Store(&wrapped)
	}

	// Ownership moves while the third node cannot hear about it.
	resp, err := http.Post(tc.https[owner].URL+"/v1/admin/handoff?federation=alpha&target="+tc.members[target].ID, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("handoff during partition = %d", resp.StatusCode)
	}

	// The third node's table is stale (epoch 1, old owner)…
	if cr := getClusterTable(t, tc.https[third].URL); cr.Epoch != 1 {
		t.Fatalf("partitioned node adopted epoch %d; partition leaked", cr.Epoch)
	}
	// …but a client hitting it still lands: stale redirect to the old
	// owner, which forwards to the new one. Zero loss during the
	// partition.
	body, _ := json.Marshal(QueryRequest{Federation: "alpha", Query: "Q12", Weights: []float64{1, 1}})
	full, err := http.Post(tc.https[third].URL+"/v1/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(full.Body)
	full.Body.Close()
	if full.StatusCode != http.StatusOK {
		t.Fatalf("request via partitioned node = %d: %s", full.StatusCode, b)
	}
	var qr QueryResponse
	if err := json.Unmarshal(b, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Node != tc.members[target].ID {
		t.Fatalf("stale redirect chain ended at %q, want new owner %q", qr.Node, tc.members[target].ID)
	}

	// Heal: the stale node's next exchange is bidirectional, so pushing
	// its stale table yields back the newer one, which it adopts and
	// reconciles against.
	partitioned.Store(false)
	var cr ClusterResponse
	waitFor(t, healBound, func() bool {
		cr = getClusterTable(t, tc.https[third].URL)
		return cr.Epoch >= 2 && cr.Placements["alpha"].Owner == tc.members[target].ID
	}, func() string {
		return fmt.Sprintf("healed node never converged: epoch=%d owner=%q", cr.Epoch, cr.Placements["alpha"].Owner)
	})

	// Exactly one active owner across the healed cluster, and every
	// table names it.
	active := 0
	for i, srv := range tc.servers {
		if srv.tenants["alpha"].state.Load() == cluster.Active {
			active++
			if i != target {
				t.Fatalf("node %d active, want only %d", i, target)
			}
		}
	}
	if active != 1 {
		t.Fatalf("%d active owners after heal, want exactly 1", active)
	}
	for i := range tc.https {
		cr := getClusterTable(t, tc.https[i].URL)
		if cr.Placements["alpha"].Owner != tc.members[target].ID {
			t.Fatalf("node %d table places alpha on %q after heal", i, cr.Placements["alpha"].Owner)
		}
	}
}

// TestChaosTakeoverDuringReplay SIGKILLs the owner (listener closed, no
// drain, no checkpoint) halfway through an open-loop scenario replay
// and promotes the standby. Every acked event must survive into the
// promoted history: 12 bootstrap + one observation per 200 the client
// saw, before and after the kill.
func TestChaosTakeoverDuringReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	servers, https, _, owner := newReplicatedPair(t)
	standby := 1 - owner

	// A deterministic replay schedule from the scenario engine; the
	// test compresses time (no sleeping) — ordering is what matters.
	events, err := scenario.Spec{
		Arrival: "poisson", Rate: 200, Events: 8, Seed: 11,
		Federation: "paper", Queries: []string{"Q12"},
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	split := len(events) / 2

	// Replay aims at the standby throughout, like a load balancer with
	// a stale backend list: before the kill each request rides a 307 to
	// the owner, after the takeover the standby serves directly.
	replay := func(evs []scenario.Event) int {
		t.Helper()
		acked := 0
		for _, ev := range evs {
			body, err := json.Marshal(QueryRequest{Federation: "paper", Query: ev.Query, Weights: []float64{1, 1}})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(https[standby].URL+"/v1/queries", "application/json", bytes.NewReader(body))
			if err != nil {
				continue // dead hop mid-redirect: not acked, not counted
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				acked++
			}
		}
		return acked
	}

	ackedBefore := replay(events[:split])
	if ackedBefore != split {
		t.Fatalf("pre-kill replay acked %d/%d", ackedBefore, split)
	}

	// SIGKILL the owner mid-replay and promote the standby from its
	// synchronously replicated WAL.
	https[owner].Kill()
	resp, err := http.Post(https[standby].URL+"/v1/admin/takeover?federation=paper", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var hr HandoffResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("takeover: %d (%+v)", resp.StatusCode, hr)
	}
	if want := 12 + ackedBefore; hr.Observations["Q12"] != want {
		t.Fatalf("takeover recovered %d observations, want %d (12 bootstrap + %d acked): acked write lost",
			hr.Observations["Q12"], want, ackedBefore)
	}

	ackedAfter := replay(events[split:])
	if ackedAfter != len(events)-split {
		t.Fatalf("post-takeover replay acked %d/%d", ackedAfter, len(events)-split)
	}
	if got, want := chaosHistLen(t, https[standby].URL), 12+ackedBefore+ackedAfter; got != want {
		t.Fatalf("final history %d, want %d: acked write lost across takeover", got, want)
	}
	if err := servers[standby].Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// chaosDetectorKnobs arms auto-failover on a replicated pair with
// probes fast enough to detect a kill in well under a second, but a
// DownAfter that needs ~500ms of *consecutive* misses — construction
// 503s (the second node's calibration runs while the first node's
// detector is already probing) and scheduler hiccups don't reach a
// false death verdict, and the eligibility gate (no cached "streaming"
// report yet) blocks promotion even if one slips through.
func chaosDetectorKnobs(cc *ClusterConfig) {
	cc.AutoFailover = true
	cc.ProbeInterval = 10 * time.Millisecond
	cc.SuspectAfter = 5
	cc.DownAfter = 50
}

// waitPeerReplStreaming blocks until srv's probe loop has cached peer's
// replication report for fed as "streaming" — the eligibility record an
// auto-promotion will consult after that peer dies.
func waitPeerReplStreaming(t *testing.T, srv *Server, peer, fed string) {
	t.Helper()
	cs := srv.cluster
	var health string
	waitFor(t, 15*time.Second, func() bool {
		cs.peerMu.Lock()
		health = cs.peerRepl[peer][fed]
		cs.peerMu.Unlock()
		return health == "streaming"
	}, func() string {
		return fmt.Sprintf("probe cache never reported %s/%s streaming (last %q)", peer, fed, health)
	})
}

// TestChaosProbePartitionFalsePositive partitions the failure
// detector's probes — and only the probes — between two live nodes: the
// classic false positive, where the standby declares a perfectly
// healthy owner dead. The standby promotes (its cached eligibility says
// the replica is current), minting epoch 2 over both nodes' epoch-1
// tables; gossip still flows, so the real owner adopts the higher epoch
// and stands itself down. The invariants: the cluster settles on
// exactly one active owner, and no client request errors at any point —
// a false positive costs a spurious ownership move, never correctness.
func TestChaosProbePartitionFalsePositive(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	servers, https, members, owner, late := newReplicatedPairCfg(t, chaosDetectorKnobs)
	standby := 1 - owner
	waitPeerReplStreaming(t, servers[standby], members[owner].ID, "paper")

	// Drop health probes in both directions; every other path — queries,
	// replication, gossip — stays connected.
	var partitioned atomic.Bool
	partitioned.Store(true)
	for i := 0; i < 2; i++ {
		real := servers[i].Handler()
		wrapped := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if partitioned.Load() && r.URL.Path == "/v1/cluster/health" {
				http.Error(w, "injected: probe partition", http.StatusServiceUnavailable)
				return
			}
			real.ServeHTTP(w, r)
		}))
		late[i].h.Store(&wrapped)
	}

	// Clients keep hitting BOTH nodes (following redirects) while the
	// standby walks owner through suspect → down → auto-promotion and
	// gossip demotes the real owner. Every request must land.
	submitBoth := func() {
		t.Helper()
		for i := 0; i < 2; i++ {
			body, _ := json.Marshal(QueryRequest{Federation: "paper", Query: "Q12", Weights: []float64{1, 1}})
			resp, err := http.Post(https[i].URL+"/v1/queries", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("client-visible error via node %d during false positive: %v", i, err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("client-visible error via node %d during false positive: %d %s", i, resp.StatusCode, b)
			}
		}
	}

	waitFor(t, 20*time.Second, func() bool {
		submitBoth()
		// Settled: the false-positive promotion committed AND the demoted
		// real owner is back to remote — exactly one active owner.
		return servers[standby].tenants["paper"].state.Load() == cluster.Active &&
			servers[owner].tenants["paper"].state.Load() == cluster.Remote
	}, func() string {
		return fmt.Sprintf("cluster never settled after probe partition: owner=%s standby=%s",
			tenantStateName(servers[owner].tenants["paper"].state.Load()),
			tenantStateName(servers[standby].tenants["paper"].state.Load()))
	})
	submitBoth()

	// Both tables agree on the new owner at the promoted epoch.
	for i := range https {
		cr := getClusterTable(t, https[i].URL)
		if cr.Epoch != 2 || cr.Placements["paper"].Owner != members[standby].ID {
			t.Fatalf("node %d table epoch=%d owner=%q after settle, want 2/%q",
				i, cr.Epoch, cr.Placements["paper"].Owner, members[standby].ID)
		}
	}
	if got := servers[standby].cluster.autoTakeovers.Value(); got != 1 {
		t.Fatalf("auto-takeovers = %v, want exactly 1 (the fence must stop a second commit)", got)
	}

	partitioned.Store(false)
	for i := range servers {
		if err := servers[i].Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosAutoPromotionDeterminism extends the determinism probe to
// the detector-driven path: SIGKILL the owner and let the failure
// detector promote the standby with NO operator takeover, then require
// the first post-promotion decision byte-identical to an unchaosed
// standalone control.
func TestChaosAutoPromotionDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	servers, https, members, owner, _ := newReplicatedPairCfg(t, chaosDetectorKnobs)
	standby := 1 - owner

	ctrl, err := New(Config{Federations: []FederationSpec{chaosPaperSpec()}})
	if err != nil {
		t.Fatal(err)
	}
	tsC := httptest.NewServer(ctrl.Handler())
	defer tsC.Close()

	for i := 0; i < 3; i++ {
		chaosSubmit(t, https[owner].URL)
		chaosSubmit(t, tsC.URL)
	}
	want := chaosSubmit(t, tsC.URL) // the control's fourth decision

	// The standby must hold the owner's "streaming" report before the
	// kill, or the eligibility gate (correctly) refuses to promote.
	waitPeerReplStreaming(t, servers[standby], members[owner].ID, "paper")
	https[owner].Kill()

	waitFor(t, 20*time.Second, func() bool { return servers[standby].tenants["paper"].state.Load() == cluster.Active }, func() string {
		return fmt.Sprintf("standby never auto-promoted (state %s, owner judged %v)",
			tenantStateName(servers[standby].tenants["paper"].state.Load()),
			servers[standby].cluster.detector.Status(members[owner].ID))
	})

	got := chaosSubmit(t, https[standby].URL)
	if got.Plan != want.Plan {
		t.Fatalf("post-promotion plan %+v, unchaosed control chose %+v", got.Plan, want.Plan)
	}
	if got.EstimatedTimeS != want.EstimatedTimeS || got.EstimatedUSD != want.EstimatedUSD {
		t.Fatalf("post-promotion estimates (%v, %v), control (%v, %v)",
			got.EstimatedTimeS, got.EstimatedUSD, want.EstimatedTimeS, want.EstimatedUSD)
	}
	if got.ParetoSize != want.ParetoSize || got.PlanSpace != want.PlanSpace {
		t.Fatalf("post-promotion front %d/%d, control %d/%d",
			got.ParetoSize, got.PlanSpace, want.ParetoSize, want.PlanSpace)
	}
	if got.Node != members[standby].ID || got.Epoch != 2 {
		t.Fatalf("post-promotion stamp node=%q epoch=%d, want %q/2", got.Node, got.Epoch, members[standby].ID)
	}
	if err := servers[standby].Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestReadyzDegradedReplication kills a standby and asserts the owner's
// /readyz flips to 503 with the degraded federations named, once a
// write forces the replicator to fall back to local-only durability.
func TestReadyzDegradedReplication(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	servers, https, _, owner := newReplicatedPair(t)
	standby := 1 - owner

	// Healthy pair: ready.
	resp, err := http.Get(https[owner].URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz on healthy owner = %d", resp.StatusCode)
	}

	// Kill the standby; the next acked write's frame ship fails and the
	// stream degrades to local-only durability.
	https[standby].Kill()
	chaosSubmit(t, https[owner].URL)

	var (
		code int
		rz   struct {
			Status   string   `json:"status"`
			Degraded []string `json:"degraded"`
		}
	)
	waitFor(t, 15*time.Second, func() bool {
		resp, err := http.Get(https[owner].URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		code = resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&rz)
		resp.Body.Close()
		if code == http.StatusServiceUnavailable && err != nil {
			t.Fatal(err)
		}
		return code == http.StatusServiceUnavailable
	}, func() string { return fmt.Sprintf("readyz never reported degraded replication (last %d)", code) })
	if rz.Status != "degraded" || len(rz.Degraded) != 1 || rz.Degraded[0] != "paper" {
		t.Fatalf("degraded readyz body %+v", rz)
	}
	if err := servers[owner].Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestHistoryReadOnStandbyKeepsReplicating: a history read sent to the
// standby is redirected to the owner like a submission, and leaves the
// replica shard alone. (Answering it there would open the replica as a
// live history, after which every shipped frame and every re-arming sync
// is refused and the next takeover loses the writes acked since.)
func TestHistoryReadOnStandbyKeepsReplicating(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	servers, https, _, owner := newReplicatedPair(t)
	standby := 1 - owner
	chaosSubmit(t, https[owner].URL)

	const path = "/v1/history/Q12?federation=paper&limit=1"
	resp, err := noRedirectClient.Get(https[standby].URL + path)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("history read on the standby = %d, want 307", resp.StatusCode)
	}
	if got, want := resp.Header.Get("Location"), https[owner].URL+path; got != want {
		t.Fatalf("Location = %q, want %q", got, want)
	}

	for i := 0; i < 4; i++ {
		chaosSubmit(t, https[owner].URL)
	}
	if !servers[owner].cluster.repl["paper"].Streaming("Q12") {
		t.Fatal("replication stream degraded after a history read on the standby")
	}

	// Kill the owner; the standby recovers every acked write: 12
	// bootstrap + 5 decisions.
	https[owner].Kill()
	tresp, err := http.Post(https[standby].URL+"/v1/admin/takeover?federation=paper", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var hr HandoffResponse
	err = json.NewDecoder(tresp.Body).Decode(&hr)
	tresp.Body.Close()
	if err != nil || tresp.StatusCode != http.StatusOK {
		t.Fatalf("takeover: %d (%+v) %v", tresp.StatusCode, hr, err)
	}
	if hr.Observations["Q12"] != 17 {
		t.Fatalf("takeover recovered %d observations, want 17", hr.Observations["Q12"])
	}
	if err := servers[standby].Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestChaosKillTakeoverDeterminism is the chaos form of PR 8's
// acceptance invariant: after an owner is killed without warning and
// the standby promotes from the replicated WAL, the first post-recovery
// decision must be byte-identical — plan, both estimates, Pareto front,
// plan space — to a standalone control that never saw a failure.
func TestChaosKillTakeoverDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	servers, https, members, owner := newReplicatedPair(t)
	standby := 1 - owner

	// Control: same spec, same request sequence, no cluster, no chaos.
	ctrl, err := New(Config{Federations: []FederationSpec{chaosPaperSpec()}})
	if err != nil {
		t.Fatal(err)
	}
	tsC := httptest.NewServer(ctrl.Handler())
	defer tsC.Close()

	for i := 0; i < 3; i++ {
		chaosSubmit(t, https[owner].URL)
		chaosSubmit(t, tsC.URL)
	}
	want := chaosSubmit(t, tsC.URL) // the control's fourth decision

	https[owner].Kill()
	resp, err := http.Post(https[standby].URL+"/v1/admin/takeover?federation=paper", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("takeover: %d", resp.StatusCode)
	}

	got := chaosSubmit(t, https[standby].URL)
	if got.Plan != want.Plan {
		t.Fatalf("post-recovery plan %+v, unchaosed control chose %+v", got.Plan, want.Plan)
	}
	if got.EstimatedTimeS != want.EstimatedTimeS || got.EstimatedUSD != want.EstimatedUSD {
		t.Fatalf("post-recovery estimates (%v, %v), control (%v, %v)",
			got.EstimatedTimeS, got.EstimatedUSD, want.EstimatedTimeS, want.EstimatedUSD)
	}
	if got.ParetoSize != want.ParetoSize || got.PlanSpace != want.PlanSpace {
		t.Fatalf("post-recovery front %d/%d, control %d/%d",
			got.ParetoSize, got.PlanSpace, want.ParetoSize, want.PlanSpace)
	}
	if got.Node != members[standby].ID || got.Epoch != 2 {
		t.Fatalf("post-recovery stamp node=%q epoch=%d", got.Node, got.Epoch)
	}
	if err := servers[standby].Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
