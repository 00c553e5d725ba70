package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/tpch"
)

// lateHandler lets an httptest.Server start before the midas Server
// whose handler it will front exists — cluster member addresses must
// be known when the Server is built.
type lateHandler struct{ h atomic.Pointer[http.Handler] }

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := l.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "not ready", http.StatusServiceUnavailable)
}

// testNode is an httptest.Server a test can kill the way SIGKILL kills a
// process: the listener and every connection it ever accepted go at once.
// httptest.Server.Close alone is a polite shutdown — it waits for
// requests and never touches a hijacked connection, so an upgraded
// replication stream into a "dead" node would go on appending and acking.
type testNode struct {
	*httptest.Server
	ln *connTracker
}

type connTracker struct {
	net.Listener
	mu    sync.Mutex
	conns []*trackedConn
}

// trackedConn records whether net/http handed the connection over to a
// handler (an upgraded replication stream) and whether it is closed.
type trackedConn struct {
	*net.TCPConn
	hijacked, closed atomic.Bool
}

func (c *trackedConn) Close() error {
	c.closed.Store(true)
	return c.TCPConn.Close()
}

func (l *connTracker) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &trackedConn{TCPConn: c.(*net.TCPConn)}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

// newTestNode serves h on a fresh loopback port, or on addr when a test
// restarts a killed node where its peers expect it.
func newTestNode(t *testing.T, addr string, h http.Handler) *testNode {
	t.Helper()
	ts := httptest.NewUnstartedServer(h)
	if addr != "" {
		ts.Listener.Close()
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		ts.Listener = ln
	}
	n := &testNode{Server: ts, ln: &connTracker{Listener: ts.Listener}}
	ts.Listener = n.ln
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateHijacked {
			c.(*trackedConn).hijacked.Store(true)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return n
}

// acceptedStreams counts the upgraded connections n is serving.
func (n *testNode) acceptedStreams() int {
	n.ln.mu.Lock()
	defer n.ln.mu.Unlock()
	open := 0
	for _, c := range n.ln.conns {
		if c.hijacked.Load() && !c.closed.Load() {
			open++
		}
	}
	return open
}

func (n *testNode) Kill() {
	n.ln.Close()
	n.ln.mu.Lock()
	for _, c := range n.ln.conns {
		c.Close()
	}
	n.ln.mu.Unlock()
	n.Close()
}

// testCluster is n stub-backed cluster members hosting the same
// federations.
type testCluster struct {
	servers []*Server
	https   []*testNode
	members []cluster.Member
	// late are the swappable handlers fronting each member; a test can
	// re-Store one to wrap a node's real handler with fault injection.
	late []*lateHandler
}

func newTestCluster(t *testing.T, n int, feds []string) *testCluster {
	return newTestClusterCfg(t, n, feds, nil)
}

// newTestClusterCfg is newTestCluster with a per-node config hook, for
// tests that need extra knobs (auto-failover, durable store dirs).
func newTestClusterCfg(t *testing.T, n int, feds []string, mutate func(i int, cfg *Config)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	late := make([]*lateHandler, n)
	for i := 0; i < n; i++ {
		late[i] = &lateHandler{}
		ts := newTestNode(t, "", late[i])
		tc.https = append(tc.https, ts)
		tc.members = append(tc.members, cluster.Member{ID: fmt.Sprintf("n%d", i), Addr: ts.URL})
	}
	tc.late = late
	for i := 0; i < n; i++ {
		scheds := make(map[string]QueryScheduler, len(feds))
		for _, f := range feds {
			scheds[f] = &stubSched{}
		}
		cfg := Config{Cluster: &ClusterConfig{
			NodeID:      tc.members[i].ID,
			Peers:       tc.members,
			PeerTimeout: 5 * time.Second,
		}}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv, err := NewWithSchedulers(cfg, scheds, tpch.AllQueries)
		if err != nil {
			t.Fatal(err)
		}
		drainAtCleanup(t, srv)
		h := srv.Handler()
		late[i].h.Store(&h)
		tc.servers = append(tc.servers, srv)
	}
	return tc
}

// drainAtCleanup ends srv's background work when the test ends, before
// its listener closes: a node left running keeps exchanging tables with
// its peers' addresses, which a later test's listener may have reused.
// A second Drain after the test's own is a no-op.
func drainAtCleanup(t *testing.T, srv *Server) {
	t.Cleanup(func() { _ = srv.Drain(context.Background()) })
}

// ownerIdx returns the index of the node whose tenant for fed is
// active.
func (tc *testCluster) ownerIdx(t *testing.T, fed string) int {
	t.Helper()
	for i, srv := range tc.servers {
		if srv.tenants[fed].state.Load() == tenantActive {
			return i
		}
	}
	var seen []string
	for _, srv := range tc.servers {
		tab := srv.cluster.table.Load()
		seen = append(seen, fmt.Sprintf("%s: %s at epoch %d naming %s", srv.cluster.self.ID,
			tenantStateName(srv.tenants[fed].state.Load()), tab.Epoch(), tab.Owner(fed).ID))
	}
	t.Fatalf("no node owns %q (%s)", fed, strings.Join(seen, "; "))
	return -1
}

// noRedirectClient surfaces 307s instead of following them.
var noRedirectClient = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

func postQueryNoRedirect(t *testing.T, url string, req QueryRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := noRedirectClient.Post(url+"/v1/queries", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getClusterTable(t *testing.T, url string) ClusterResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr ClusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

func TestClusterRoutingAndRedirect(t *testing.T) {
	tc := newTestCluster(t, 2, []string{"alpha"})
	owner := tc.ownerIdx(t, "alpha")
	other := 1 - owner
	req := QueryRequest{Federation: "alpha", Query: "Q12", Weights: []float64{1, 1}}

	// The non-owner answers with 307 + the owner's submit URL.
	resp, body := postQueryNoRedirect(t, tc.https[other].URL, req)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("non-owner returned %d: %s", resp.StatusCode, body)
	}
	wantLoc := tc.members[owner].Addr + "/v1/queries"
	if loc := resp.Header.Get("Location"); loc != wantLoc {
		t.Fatalf("Location %q, want %q", loc, wantLoc)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, tc.members[owner].ID) {
		t.Fatalf("redirect body %q should name the owner (err %v)", body, err)
	}

	// The owner serves, stamping node and epoch.
	resp, body = postQueryNoRedirect(t, tc.https[owner].URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner returned %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Node != tc.members[owner].ID || qr.Epoch != 1 {
		t.Fatalf("response stamped node=%q epoch=%d, want %q/1", qr.Node, qr.Epoch, tc.members[owner].ID)
	}

	// Both nodes publish the same routing table.
	for i := range tc.https {
		cr := getClusterTable(t, tc.https[i].URL)
		if cr.Epoch != 1 || len(cr.Members) != 2 {
			t.Fatalf("node %d table: epoch=%d members=%d", i, cr.Epoch, len(cr.Members))
		}
		p := cr.Placements["alpha"]
		if p.Owner != tc.members[owner].ID {
			t.Fatalf("node %d places alpha on %q, want %q", i, p.Owner, tc.members[owner].ID)
		}
		if p.Standby != tc.members[other].ID {
			t.Fatalf("node %d standby %q, want %q", i, p.Standby, tc.members[other].ID)
		}
	}
}

func TestReadyzTracksDrainAndHandoff(t *testing.T) {
	tc := newTestCluster(t, 2, []string{"alpha"})
	other := 1 - tc.ownerIdx(t, "alpha")

	getStatus := func(url string) (int, map[string]string) {
		t.Helper()
		resp, err := http.Get(url + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}
	if code, _ := getStatus(tc.https[other].URL); code != http.StatusOK {
		t.Fatalf("idle readyz = %d", code)
	}
	// A prepared (receiving) handoff flips readiness off…
	resp, err := http.Post(tc.https[other].URL+"/v1/admin/handoff/prepare?federation=alpha", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare = %d", resp.StatusCode)
	}
	code, m := getStatus(tc.https[other].URL)
	if code != http.StatusServiceUnavailable || m["status"] != "handoff" {
		t.Fatalf("mid-handoff readyz = %d %v", code, m)
	}
	// …and liveness stays on.
	resp, err = http.Get(tc.https[other].URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-handoff healthz = %d", resp.StatusCode)
	}
	// Abort restores readiness.
	resp, err = http.Post(tc.https[other].URL+"/v1/admin/handoff/abort?federation=alpha", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if code, _ := getStatus(tc.https[other].URL); code != http.StatusOK {
		t.Fatalf("post-abort readyz = %d", code)
	}
	// Draining flips it off for good.
	if err := tc.servers[other].Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, m = getStatus(tc.https[other].URL)
	if code != http.StatusServiceUnavailable || m["status"] != "draining" {
		t.Fatalf("draining readyz = %d %v", code, m)
	}
}

func TestClusterHandoffMovesOwnership(t *testing.T) {
	tc := newTestCluster(t, 3, []string{"alpha"})
	owner := tc.ownerIdx(t, "alpha")
	target := (owner + 1) % 3
	req := QueryRequest{Federation: "alpha", Query: "Q12", Weights: []float64{1, 1}}

	// Handoff must be addressed to the owner.
	resp, err := http.Post(tc.https[target].URL+"/v1/admin/handoff?federation=alpha&target="+tc.members[owner].ID, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("handoff initiated at a non-owner succeeded")
	}

	resp, err = http.Post(tc.https[owner].URL+"/v1/admin/handoff?federation=alpha&target="+tc.members[target].ID, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var hr HandoffResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("handoff = %d", resp.StatusCode)
	}
	if hr.From != tc.members[owner].ID || hr.To != tc.members[target].ID || hr.Epoch != 2 {
		t.Fatalf("handoff response %+v", hr)
	}

	// The old owner now redirects at the new one…
	resp2, _ := postQueryNoRedirect(t, tc.https[owner].URL, req)
	if resp2.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("old owner returned %d", resp2.StatusCode)
	}
	if loc := resp2.Header.Get("Location"); loc != tc.members[target].Addr+"/v1/queries" {
		t.Fatalf("old owner redirects to %q", loc)
	}
	// …and the new owner serves under the bumped epoch.
	resp2, body := postQueryNoRedirect(t, tc.https[target].URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("new owner returned %d: %s", resp2.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Node != tc.members[target].ID || qr.Epoch != 2 {
		t.Fatalf("post-handoff response node=%q epoch=%d", qr.Node, qr.Epoch)
	}

	// The exchange converges the third node's table (async, so poll).
	third := 3 - owner - target
	var cr ClusterResponse
	waitFor(t, 5*time.Second, func() bool {
		cr = getClusterTable(t, tc.https[third].URL)
		return cr.Epoch >= 2
	}, func() string { return "the exchange never reached the third node" })
	if cr.Placements["alpha"].Owner != tc.members[target].ID {
		t.Fatalf("third node places alpha on %q", cr.Placements["alpha"].Owner)
	}
}

// TestClusterHandoffSubmitHammer bounces ownership back and forth
// while clients hammer both nodes; every request must complete 200
// after at most a few redirects — nobody may observe an error from the
// migration machinery. Within one handoff a request sees at most two
// 307s in a row (stale node → source → target, which holds it): the
// target holds before the source redirects, so nothing is bounced
// between the two. A request quicker than the pause between handoffs
// overlaps at most one, so more than two 307s there is a ping-pong; a
// slower one (the client descheduled under -race) may chase ownership
// across several handoffs, which is what the 8-hop budget is for. Run
// with -race this doubles as the concurrency check on the tenant state
// machine.
func TestClusterHandoffSubmitHammer(t *testing.T) {
	const bounce = 20 * time.Millisecond // pause between handoffs
	tc := newTestCluster(t, 2, []string{"alpha"})
	req, _ := json.Marshal(QueryRequest{Federation: "alpha", Query: "Q12", Weights: []float64{1, 1}})

	stop := make(chan struct{})
	var completed atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Start at alternating nodes and follow redirects by
				// hand, bounded by a budget.
				url := tc.https[(w+i)%2].URL + "/v1/queries"
				status, redirects, began := 0, 0, time.Now()
				for hop := 0; hop < 8; hop++ {
					resp, err := noRedirectClient.Post(url, "application/json", strings.NewReader(string(req)))
					if err != nil {
						select {
						case errCh <- err:
						default:
						}
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					status = resp.StatusCode
					if status == http.StatusTemporaryRedirect {
						url = resp.Header.Get("Location")
						redirects++
						continue
					}
					break
				}
				if took := time.Since(began); status != http.StatusOK || (redirects > 2 && took < bounce) {
					select {
					case errCh <- fmt.Errorf("request ended %d after %d consecutive 307s in %v", status, redirects, took):
					default:
					}
					return
				}
				completed.Add(1)
			}
		}(w)
	}

	// Bounce ownership back and forth under load.
	for round := 0; round < 6; round++ {
		owner := tc.ownerIdx(t, "alpha")
		target := 1 - owner
		resp, err := http.Post(tc.https[owner].URL+"/v1/admin/handoff?federation=alpha&target="+tc.members[target].ID, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d handoff: %d %s", round, resp.StatusCode, body)
		}
		time.Sleep(bounce)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("hammer worker failed: %v", err)
	default:
	}
	if completed.Load() == 0 {
		t.Fatal("no requests completed")
	}
	// Six handoffs bump the epoch six times.
	for i, srv := range tc.servers {
		if e := srv.cluster.table.Load().Epoch(); e != 7 {
			t.Fatalf("node %d at epoch %d, want 7", i, e)
		}
	}
}

// TestClusterMigrationDeterminism is the acceptance test for the
// tentpole: a live handoff moves a federation between two real nodes
// mid-workload and the first decision on the new owner is byte-
// identical (plan, estimates, Pareto front) to a control that never
// moved — and no acked write is lost.
func TestClusterMigrationDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	// The rolled history is two observations short of its third roll:
	// the stream ships two segments, the new owner rolls on its first
	// decision, and the handoff back lands on stale segments.
	for name, bootstrap := range map[string]int{"short history": 12, "rolled history": 3*historyRetain - 2} {
		t.Run(name, func(t *testing.T) { testClusterMigrationDeterminism(t, bootstrap) })
	}
}

func testClusterMigrationDeterminism(t *testing.T, bootstrap int) {
	spec := FederationSpec{
		Name:        "paper",
		SF:          0.05,
		NodeChoices: []int{1, 2},
		Bootstrap:   bootstrap,
		Queries:     []string{"Q12"},
	}
	// Two real nodes, separate data dirs, shared ring.
	late := []*lateHandler{{}, {}}
	var https []*testNode
	var members []cluster.Member
	for i := 0; i < 2; i++ {
		ts := newTestNode(t, "", late[i])
		https = append(https, ts)
		members = append(members, cluster.Member{ID: fmt.Sprintf("n%d", i), Addr: ts.URL})
	}
	var servers []*Server
	for i := 0; i < 2; i++ {
		srv, err := New(Config{
			Federations: []FederationSpec{spec},
			Store:       StoreConfig{Dir: t.TempDir()},
			Cluster: &ClusterConfig{
				NodeID: members[i].ID, Peers: members, PeerTimeout: 30 * time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		late[i].h.Store(&h)
		servers = append(servers, srv)
	}
	owner := -1
	for i, srv := range servers {
		if srv.tenants["paper"].state.Load() == tenantActive {
			owner = i
		}
	}
	if owner < 0 {
		t.Fatal("no owner")
	}
	target := 1 - owner

	submitQ := func(url string) QueryResponse {
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
	histLen := func(url string) int {
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

	// Two decisions on the original owner.
	submitQ(https[owner].URL)
	submitQ(https[owner].URL)

	// Control: identical spec and request sequence on a standalone
	// server that never migrates.
	ctrl, err := New(Config{Federations: []FederationSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	tsC := httptest.NewServer(ctrl.Handler())
	defer tsC.Close()
	submitQ(tsC.URL)
	submitQ(tsC.URL)
	want := submitQ(tsC.URL) // the control's third decision

	// Live migration.
	resp, err := http.Post(https[owner].URL+"/v1/admin/handoff?federation=paper&target="+members[target].ID, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var hr HandoffResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("handoff: %d (%+v)", resp.StatusCode, hr)
	}
	// Zero acked-write loss: every observation (bootstrap + 2
	// decisions) crossed, by count — a bounded history ships its tail.
	if hr.Observations["Q12"] != bootstrap+2 {
		t.Fatalf("handoff moved %d observations, want %d", hr.Observations["Q12"], bootstrap+2)
	}
	if got := histLen(https[target].URL); got != bootstrap+2 {
		t.Fatalf("new owner history = %d, want %d", got, bootstrap+2)
	}

	// The first post-handoff decision must match the never-moved
	// control exactly: estimation is a pure function of (history, plan
	// space), both of which the handoff moved bit-for-bit.
	got := submitQ(https[target].URL)
	if got.Plan != want.Plan {
		t.Fatalf("post-handoff plan %+v, control chose %+v", got.Plan, want.Plan)
	}
	if got.EstimatedTimeS != want.EstimatedTimeS || got.EstimatedUSD != want.EstimatedUSD {
		t.Fatalf("post-handoff estimates (%v, %v), control (%v, %v)",
			got.EstimatedTimeS, got.EstimatedUSD, want.EstimatedTimeS, want.EstimatedUSD)
	}
	if got.ParetoSize != want.ParetoSize || got.PlanSpace != want.PlanSpace {
		t.Fatalf("post-handoff front %d/%d, control %d/%d",
			got.ParetoSize, got.PlanSpace, want.ParetoSize, want.PlanSpace)
	}
	if got.Node != members[target].ID || got.Epoch != 2 {
		t.Fatalf("post-handoff stamp node=%q epoch=%d", got.Node, got.Epoch)
	}

	// The old owner redirects, and a handoff *back* works too (the
	// source rebuilt serving state from the returned stream).
	resp2, _ := postQueryNoRedirect(t, https[owner].URL, QueryRequest{Federation: "paper", Query: "Q12"})
	if resp2.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("old owner returned %d", resp2.StatusCode)
	}
	resp, err = http.Post(https[target].URL+"/v1/admin/handoff?federation=paper&target="+members[owner].ID, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("handoff back: %d", resp.StatusCode)
	}
	if got := histLen(https[owner].URL); got != bootstrap+3 {
		t.Fatalf("after round trip history = %d, want %d", got, bootstrap+3)
	}
	for _, srv := range servers {
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctrl.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestClusterReplicationTakeover kills an owner (no drain, no
// checkpoint) and promotes the standby from its synchronously
// replicated WAL: every acked decision must survive.
func TestClusterReplicationTakeover(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	// The rolled history is two observations short of its third roll:
	// the standby is synced from two segments and its replica rolls, as
	// the owner's WAL does, under the streamed decisions.
	for name, bootstrap := range map[string]int{"short history": 12, "rolled history": 3*historyRetain - 2} {
		t.Run(name, func(t *testing.T) { testClusterReplicationTakeover(t, bootstrap) })
	}
}

func testClusterReplicationTakeover(t *testing.T, bootstrap int) {
	spec := FederationSpec{
		Name:        "paper",
		SF:          0.05,
		NodeChoices: []int{1, 2},
		Bootstrap:   bootstrap,
		Queries:     []string{"Q12"},
	}
	late := []*lateHandler{{}, {}}
	var https []*testNode
	var members []cluster.Member
	for i := 0; i < 2; i++ {
		ts := newTestNode(t, "", late[i])
		https = append(https, ts)
		members = append(members, cluster.Member{ID: fmt.Sprintf("n%d", i), Addr: ts.URL})
	}
	var servers []*Server
	for i := 0; i < 2; i++ {
		srv, err := New(Config{
			Federations: []FederationSpec{spec},
			Store:       StoreConfig{Dir: t.TempDir()},
			Cluster: &ClusterConfig{
				NodeID: members[i].ID, Peers: members,
				Replicate:    true,
				SyncInterval: 50 * time.Millisecond,
				PeerTimeout:  30 * time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		late[i].h.Store(&h)
		servers = append(servers, srv)
	}
	owner := -1
	for i, srv := range servers {
		if srv.tenants["paper"].state.Load() == tenantActive {
			owner = i
		}
	}
	if owner < 0 {
		t.Fatal("no owner")
	}
	standby := 1 - owner

	// Wait for the sync loop to arm the replication stream.
	rep := servers[owner].cluster.repl["paper"]
	waitFor(t, 15*time.Second, func() bool { return rep.Streaming("Q12") },
		func() string { return "replication never armed" })

	// Acked decisions on the owner; each one's WAL frame is on the
	// standby before the response returns.
	for i := 0; i < 3; i++ {
		resp, body := postQueryNoRedirect(t, https[owner].URL,
			QueryRequest{Federation: "paper", Query: "Q12", Weights: []float64{1, 1}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
	}

	// Kill the owner: close its listener without drain or checkpoint.
	https[owner].Kill()

	// Promote the standby from replicated state.
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
	// Zero acked-write loss: bootstrap + 3 decisions.
	if hr.Observations["Q12"] != bootstrap+3 {
		t.Fatalf("takeover recovered %d observations, want %d", hr.Observations["Q12"], bootstrap+3)
	}
	// The promoted node serves.
	resp2, body := postQueryNoRedirect(t, https[standby].URL,
		QueryRequest{Federation: "paper", Query: "Q12", Weights: []float64{1, 1}})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-takeover submit: %d %s", resp2.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Node != members[standby].ID || qr.Epoch != 2 {
		t.Fatalf("post-takeover stamp node=%q epoch=%d", qr.Node, qr.Epoch)
	}
	if err := servers[standby].Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestClusterViewEpochStamp covers the node's epoch-stamped view in
// cluster mode: GET /v1/cluster names the node, its epoch and its
// members, and the placements it reports active are exactly the tenants
// the state machine holds active.
func TestClusterViewEpochStamp(t *testing.T) {
	tc := newTestCluster(t, 2, []string{"alpha", "beta"})
	cr := getClusterTable(t, tc.https[0].URL)
	if cr.Node != "n0" || cr.Epoch != 1 || len(cr.Members) != 2 {
		t.Fatalf("cluster view node=%q epoch=%d members=%v", cr.Node, cr.Epoch, cr.Members)
	}
	for _, fed := range []string{"alpha", "beta"} {
		active := tc.servers[0].tenants[fed].state.Load() == tenantActive
		if (cr.Placements[fed].State == "active") != active {
			t.Fatalf("%s placed %+v, state machine active=%v", fed, cr.Placements[fed], active)
		}
	}
}

// TestClusterHandoffActivateAckLost drives the two-generals corner of
// a handoff: the target commits activation but the source never sees
// the ack (the response is swallowed and replaced with a 502). The
// source must NOT revert to active — that would leave two owners at
// different epochs — but verify the outcome against the target and
// commit its half of the move.
func TestClusterHandoffActivateAckLost(t *testing.T) {
	tc := newTestCluster(t, 2, []string{"alpha"})
	owner := tc.ownerIdx(t, "alpha")
	target := 1 - owner

	// Wrap the target: the first activate POST runs through the real
	// handler (so activation commits) but the caller gets a 502.
	real := tc.servers[target].Handler()
	var swallowed atomic.Bool
	wrapped := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/admin/handoff/activate" && swallowed.CompareAndSwap(false, true) {
			rec := httptest.NewRecorder()
			real.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK {
				t.Errorf("real activate handler returned %d: %s", rec.Code, rec.Body)
			}
			http.Error(w, "injected: ack lost", http.StatusBadGateway)
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("handoff with lost activate ack = %d: %s", resp.StatusCode, body)
	}
	var hr HandoffResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Epoch != 2 || hr.To != tc.members[target].ID {
		t.Fatalf("handoff response %+v", hr)
	}
	if !swallowed.Load() {
		t.Fatal("fault injection never fired")
	}

	// Exactly one owner: source remote, target active.
	if st := tc.servers[owner].tenants["alpha"].state.Load(); st != tenantRemote {
		t.Fatalf("source tenant is %s, want remote", tenantStateName(st))
	}
	if st := tc.servers[target].tenants["alpha"].state.Load(); st != tenantActive {
		t.Fatalf("target tenant is %s, want active", tenantStateName(st))
	}

	// The source redirects at the target, which serves at the new epoch.
	req := QueryRequest{Federation: "alpha", Query: "Q12", Weights: []float64{1, 1}}
	resp2, _ := postQueryNoRedirect(t, tc.https[owner].URL, req)
	if resp2.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("old owner returned %d", resp2.StatusCode)
	}
	if loc := resp2.Header.Get("Location"); loc != tc.members[target].Addr+"/v1/queries" {
		t.Fatalf("old owner redirects to %q", loc)
	}
	resp2, qbody := postQueryNoRedirect(t, tc.https[target].URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("new owner returned %d: %s", resp2.StatusCode, qbody)
	}
	var qr QueryResponse
	if err := json.Unmarshal(qbody, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Node != tc.members[target].ID || qr.Epoch < 2 {
		t.Fatalf("post-handoff response node=%q epoch=%d", qr.Node, qr.Epoch)
	}
}

// TestClusterStaleOwnerDemoted exercises the split-brain convergence
// path: ownership moves via takeover while the old owner is alive (the
// stand-in for a restarted former owner that boots with its ring-owned
// tenants active), and the old owner must demote itself once gossip
// hands it the newer table instead of serving stale state forever.
func TestClusterStaleOwnerDemoted(t *testing.T) {
	tc := newTestCluster(t, 2, []string{"alpha"})
	owner := tc.ownerIdx(t, "alpha")
	other := 1 - owner

	resp, err := http.Post(tc.https[other].URL+"/v1/admin/takeover?federation=alpha", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("takeover = %d: %s", resp.StatusCode, body)
	}

	// The exchange carries the epoch-2 table to the old owner, which
	// demotes the now-stale tenant (both async; poll).
	waitFor(t, 5*time.Second, func() bool { return tc.servers[owner].tenants["alpha"].state.Load() == tenantRemote }, func() string {
		return fmt.Sprintf("old owner never demoted; state=%s table-epoch=%d",
			tenantStateName(tc.servers[owner].tenants["alpha"].state.Load()),
			tc.servers[owner].cluster.table.Load().Epoch())
	})

	// The demoted node redirects at the adopted owner.
	req := QueryRequest{Federation: "alpha", Query: "Q12", Weights: []float64{1, 1}}
	resp2, _ := postQueryNoRedirect(t, tc.https[owner].URL, req)
	if resp2.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("demoted node returned %d", resp2.StatusCode)
	}
	if loc := resp2.Header.Get("Location"); loc != tc.members[other].Addr+"/v1/queries" {
		t.Fatalf("demoted node redirects to %q", loc)
	}
	// Both tables agree on the new owner.
	for i := range tc.https {
		cr := getClusterTable(t, tc.https[i].URL)
		if cr.Epoch < 2 || cr.Placements["alpha"].Owner != tc.members[other].ID {
			t.Fatalf("node %d table epoch=%d owner=%q", i, cr.Epoch, cr.Placements["alpha"].Owner)
		}
	}
}

// gatedSched is a stub scheduler that counts activations (OpenHistory,
// what reopens a store) and whose release (DropHistories) blocks until
// the test closes release.
type gatedSched struct {
	stubSched
	opens   atomic.Int32
	dropped chan struct{} // closed when DropHistories is entered
	release chan struct{}
}

func newGatedSched() *gatedSched {
	return &gatedSched{dropped: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedSched) OpenHistory(q tpch.QueryID) (*core.History, error) {
	g.opens.Add(1)
	return g.History(q), nil
}

func (g *gatedSched) DropHistories() {
	close(g.dropped)
	<-g.release
}

// TestDrainWaitsForControlPlane: control-plane work running in the
// background — the resolver of a handoff whose activation outcome is
// unknown, a stale-owner demotion — belongs to the server's lifetime.
// Drain ends it and waits for it, so once Drain returns nothing changes a
// tenant's state, activates a tenant or writes a routing table.
func TestDrainWaitsForControlPlane(t *testing.T) {
	// Two federations the ring places on n0, the node drained: one to
	// hand off, one for a takeover elsewhere to make stale.
	ring, err := cluster.NewRing([]cluster.Member{{ID: "n0"}, {ID: "n1"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var feds []string
	for i := 0; len(feds) < 2; i++ {
		if name := fmt.Sprintf("fed%d", i); ring.Owner(name).ID == "n0" {
			feds = append(feds, name)
		}
	}
	moving, stale := feds[0], feds[1]

	late := []*lateHandler{{}, {}}
	var nodes []*testNode
	var members []cluster.Member
	for i := range late {
		nodes = append(nodes, newTestNode(t, "", late[i]))
		members = append(members, cluster.Member{ID: fmt.Sprintf("n%d", i), Addr: nodes[i].URL})
	}
	gated := map[string]*gatedSched{moving: newGatedSched(), stale: newGatedSched()}
	close(gated[moving].release)
	src, err := NewWithSchedulers(Config{
		Store: StoreConfig{Dir: t.TempDir()}, // the route log
		Cluster: &ClusterConfig{NodeID: "n0", Peers: members,
			SyncInterval: 20 * time.Millisecond, PeerTimeout: 5 * time.Second},
	}, map[string]QueryScheduler{moving: gated[moving], stale: gated[stale]}, tpch.AllQueries)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewWithSchedulers(Config{
		Cluster: &ClusterConfig{NodeID: "n1", Peers: members, PeerTimeout: 5 * time.Second},
	}, map[string]QueryScheduler{moving: &stubSched{}, stale: &stubSched{}}, tpch.AllQueries)
	if err != nil {
		t.Fatal(err)
	}
	drainAtCleanup(t, dst)
	srcH := src.Handler()
	late[0].h.Store(&srcH)

	// The target never activates and, at first, never answers how its
	// activation went; later its answer hangs until answer closes.
	var hang atomic.Bool
	entered, answer := make(chan struct{}), make(chan struct{})
	var enter sync.Once
	respond := sync.OnceFunc(func() { close(answer) })
	t.Cleanup(respond) // before the node's Close, which waits for the handler
	real := dst.Handler()
	dstH := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/admin/handoff/activate", r.URL.Path == "/v1/cluster" && !hang.Load():
			http.Error(w, "injected: target unreachable", http.StatusBadGateway)
		case r.URL.Path == "/v1/cluster":
			enter.Do(func() { close(entered) })
			<-answer
			writeJSON(w, http.StatusOK, ClusterResponse{Placements: map[string]ClusterPlacement{moving: {State: "active"}}})
		default:
			real.ServeHTTP(w, r)
		}
	}))
	late[1].h.Store(&dstH)
	await := func(ch chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never happened", what)
		}
	}

	resp, err := http.Post(nodes[0].URL+"/v1/admin/handoff?federation="+moving+"&target=n1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK || !strings.Contains(string(body), "outcome unknown") {
		t.Fatalf("handoff to a target that never answers = %d %s, want the outcome unknown", resp.StatusCode, body)
	}
	hang.Store(true)
	await(entered, "the background resolver's question")

	// A takeover on the target makes stale's ownership here stale: the
	// exchange demotes it, and the demotion stops inside the release.
	resp, err = http.Post(nodes[1].URL+"/v1/admin/takeover?federation="+stale, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("takeover = %d", resp.StatusCode)
	}
	await(gated[stale].dropped, "the demotion's release")

	type snapshot struct {
		err         error
		states      map[string]int32
		opens       int32
		epoch       uint64
		persistErrs float64
	}
	take := func() snapshot {
		sn := snapshot{states: make(map[string]int32)}
		for name, tn := range src.tenants {
			sn.states[name] = tn.state.Load()
			sn.opens += gated[name].opens.Load()
		}
		sn.epoch = src.cluster.table.Load().Epoch()
		sn.persistErrs = src.cluster.routePersistErrs.Value()
		return sn
	}
	drained := make(chan snapshot, 1)
	go func() {
		err := src.Drain(context.Background())
		sn := take()
		sn.err = err
		drained <- sn
	}()
	var atReturn snapshot
	select {
	case atReturn = <-drained: // Drain did not wait for the demotion
	case <-time.After(100 * time.Millisecond):
	}
	close(gated[stale].release)
	if atReturn.states == nil {
		atReturn = <-drained
	}
	// The target answers the resolver's question only now; a goroutine
	// Drain left behind would commit the handoff on it. Nothing signals
	// that it did not, so give it the time to.
	respond()
	time.Sleep(200 * time.Millisecond)

	if atReturn.err != nil {
		t.Fatal(atReturn.err)
	}
	if got := atReturn.states[stale]; got != tenantRemote {
		t.Errorf("%s is %s when Drain returns, want remote: the demotion under way was not waited for", stale, tenantStateName(got))
	}
	after := take()
	for name, st := range after.states {
		if st != atReturn.states[name] {
			t.Errorf("%s went %s → %s after Drain returned", name, tenantStateName(atReturn.states[name]), tenantStateName(st))
		}
	}
	if after.opens != atReturn.opens {
		t.Errorf("%d activations after Drain returned", after.opens-atReturn.opens)
	}
	if after.epoch != atReturn.epoch {
		t.Errorf("routing table went epoch %d → %d after Drain returned", atReturn.epoch, after.epoch)
	}
	if after.persistErrs != 0 {
		t.Errorf("midas_cluster_route_persist_failures_total = %v, want 0", after.persistErrs)
	}
}

// TestClusterNewFailureReleasesFiles: a New that fails after the
// cluster state is built — on a tenant with an unknown topology — leaves
// no file open, the routing table's included.
func TestClusterNewFailureReleasesFiles(t *testing.T) {
	openFiles := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no per-process fd table: %v", err)
		}
		return len(fds)
	}
	cfg := Config{
		Federations: []FederationSpec{{Name: "alpha", Topology: "no-such-topology"}},
		Store:       StoreConfig{Dir: t.TempDir()},
		Cluster:     &ClusterConfig{NodeID: "n0", Peers: []cluster.Member{{ID: "n0", Addr: "http://127.0.0.1:1"}}},
	}
	newFails := func() {
		t.Helper()
		if _, err := New(cfg); err == nil {
			t.Fatal("New accepted an unknown topology")
		}
	}
	// Whatever the runtime opens once for good (its poller) is open
	// before the count starts.
	newFails()
	before := openFiles()
	newFails()
	if after := openFiles(); after > before {
		t.Fatalf("a failed New left %d more files open (%d -> %d)", after-before, before, after)
	}
}

// TestAdoptTableMergesEqualEpochs pins the equal-epoch merge: epochs
// are minted locally, so two concurrent moves can produce distinct
// tables at the same epoch, and adoption must merge them the same way
// on every node rather than ignoring one side. Every table a commit
// installs — override, newer table, merge — is the one a restart
// recovers from the route log.
func TestAdoptTableMergesEqualEpochs(t *testing.T) {
	mk := func(dir string) *clusterState {
		cs, err := newClusterState(&ClusterConfig{
			NodeID: "a",
			Peers: []cluster.Member{
				{ID: "a", Addr: "http://a"},
				{ID: "b", Addr: "http://b"},
				{ID: "c", Addr: "http://c"},
			},
		}, dir)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}

	dir := t.TempDir()
	cs := mk(dir)
	persisted := func(branch string) {
		t.Helper()
		log, err := cluster.OpenRouteLog(filepath.Join(dir, "_cluster", "routes.wal"))
		if err != nil {
			t.Fatal(err)
		}
		tab := cs.table.Load()
		if epoch, ov := log.Last(); epoch != tab.Epoch() || !overridesEqual(ov, tab.Overrides()) {
			t.Fatalf("after %s the route log recovers epoch %d %v, the table in force is epoch %d %v",
				branch, epoch, ov, tab.Epoch(), tab.Overrides())
		}
	}
	if got := cs.applyOverride("f1", "b", 2); got != 2 {
		t.Fatalf("applyOverride epoch = %d", got)
	}
	persisted("an override")
	// A disjoint same-epoch table merges: union, epoch bumped past both.
	if !cs.adoptTable(2, map[string]string{"f2": "c"}) {
		t.Fatal("same-epoch disjoint table not adopted")
	}
	persisted("an equal-epoch merge")
	tab := cs.table.Load()
	if tab.Epoch() != 3 || tab.Owner("f1").ID != "b" || tab.Owner("f2").ID != "c" {
		t.Fatalf("merged table epoch=%d f1=%q f2=%q", tab.Epoch(), tab.Owner("f1").ID, tab.Owner("f2").ID)
	}
	// Adopting an identical table is a no-op, not an epoch bump.
	if cs.adoptTable(tab.Epoch(), tab.Overrides()) {
		t.Fatal("identical table adopted")
	}
	// A same-federation conflict resolves to the smaller member ID.
	if !cs.adoptTable(3, map[string]string{"f1": "a", "f2": "c"}) {
		t.Fatal("same-epoch conflicting table not adopted")
	}
	tab = cs.table.Load()
	if tab.Epoch() != 4 || tab.Owner("f1").ID != "a" {
		t.Fatalf("conflict merge epoch=%d f1=%q", tab.Epoch(), tab.Owner("f1").ID)
	}
	// Stale epochs are refused.
	if cs.adoptTable(1, map[string]string{"f1": "c"}) {
		t.Fatal("stale table adopted")
	}
	// A newer table is adopted whole.
	if !cs.adoptTable(6, map[string]string{"f3": "b"}) {
		t.Fatal("newer table not adopted")
	}
	persisted("a newer table")
	if tab = cs.table.Load(); tab.Epoch() != 6 || tab.Owner("f3").ID != "b" || tab.Owner("f1").ID != tab.Ring().Owner("f1").ID {
		t.Fatalf("adopted table epoch=%d overrides %v", tab.Epoch(), tab.Overrides())
	}

	// The merge is commutative: two nodes seeing the same pair of
	// same-epoch tables in opposite orders converge on one table.
	ovA := map[string]string{"f1": "b", "f3": "c"}
	ovB := map[string]string{"f1": "a", "f2": "b"}
	cs1, cs2 := mk(""), mk("")
	cs1.adoptTable(2, ovA)
	cs1.adoptTable(2, ovB)
	cs2.adoptTable(2, ovB)
	cs2.adoptTable(2, ovA)
	t1, t2 := cs1.table.Load(), cs2.table.Load()
	if t1.Epoch() != t2.Epoch() || !overridesEqual(t1.Overrides(), t2.Overrides()) {
		t.Fatalf("merge not commutative: epoch %d vs %d, overrides %v vs %v",
			t1.Epoch(), t2.Epoch(), t1.Overrides(), t2.Overrides())
	}
	if t1.Owner("f1").ID != "a" {
		t.Fatalf("commutative merge f1=%q, want a", t1.Owner("f1").ID)
	}
}
