package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
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
	return newWrappedTestCluster(t, n, feds, mutate, nil)
}

// newWrappedTestCluster is newTestClusterCfg serving node i through
// wrap(i, handler) from its first request on, for tests that inject
// faults into or count what a node answers.
func newWrappedTestCluster(t *testing.T, n int, feds []string, mutate func(i int, cfg *Config), wrap func(i int, h http.Handler) http.Handler) *testCluster {
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
		if wrap != nil {
			h = wrap(i, h)
		}
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
		if srv.tenants[fed].state.Load() == cluster.Active {
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
	owner := tc.ownerIdx(t, "alpha")
	other := 1 - owner

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
	if code, _ := getStatus(tc.https[owner].URL); code != http.StatusOK {
		t.Fatalf("idle readyz = %d", code)
	}
	// A handoff waiting on its activate (the source sending) flips the
	// source's readiness off…
	gate := gateActivate(t, tc, other)
	handoff := startHandoff(tc, "alpha", owner, other)
	gate.await(t)
	code, m := getStatus(tc.https[owner].URL)
	if code != http.StatusServiceUnavailable || m["status"] != "handoff" {
		t.Fatalf("mid-handoff readyz = %d %v", code, m)
	}
	// …and liveness stays on.
	resp, err := http.Get(tc.https[owner].URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-handoff healthz = %d", resp.StatusCode)
	}
	// A failed activation ends the handoff and restores readiness.
	gate.decide(false)
	if status := <-handoff; status == http.StatusOK {
		t.Fatal("handoff with a failed activation succeeded")
	}
	for i := range tc.https {
		if code, m := getStatus(tc.https[i].URL); code != http.StatusOK {
			t.Fatalf("node %d readyz after the failed handoff = %d %v", i, code, m)
		}
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

// TestClusterHandoffEscapesFederationName: a federation whose name
// needs URL escaping hands off like any other — every control step the
// source sends its target names the federation intact.
func TestClusterHandoffEscapesFederationName(t *testing.T) {
	const fed = "a&b+c d"
	tc := newTestCluster(t, 2, []string{fed})
	owner := tc.ownerIdx(t, fed)
	target := 1 - owner
	q := url.Values{"federation": {fed}, "target": {tc.members[target].ID}}
	status, body := postStatus(t, tc.https[owner].URL+"/v1/admin/handoff?"+q.Encode())
	if status != http.StatusOK {
		t.Fatalf("handoff = %d: %s", status, body)
	}
	if got := tc.ownerIdx(t, fed); got != target {
		t.Fatalf("node %d owns %q after the handoff, want node %d", got, fed, target)
	}
	resp, body2 := postQueryNoRedirect(t, tc.https[target].URL, QueryRequest{Federation: fed, Query: "Q12", Weights: []float64{1, 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("new owner returned %d: %s", resp.StatusCode, body2)
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
		if srv.tenants["paper"].state.Load() == cluster.Active {
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
		// The killed owner too: its loops and its WAL handles outlive the
		// listener until a Drain ends them.
		drainAtCleanup(t, srv)
		h := srv.Handler()
		late[i].h.Store(&h)
		servers = append(servers, srv)
	}
	owner := -1
	for i, srv := range servers {
		if srv.tenants["paper"].state.Load() == cluster.Active {
			owner = i
		}
	}
	if owner < 0 {
		t.Fatal("no owner")
	}
	standby := 1 - owner

	// Wait for the control loop to arm the replication stream.
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
		active := tc.servers[0].tenants[fed].state.Load() == cluster.Active
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
	if st := tc.servers[owner].tenants["alpha"].state.Load(); st != cluster.Remote {
		t.Fatalf("source tenant is %s, want remote", tenantStateName(st))
	}
	if st := tc.servers[target].tenants["alpha"].state.Load(); st != cluster.Active {
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

// activateGate holds every activate POST a node receives until the test
// gives its verdict: true passes it to the real handler; false passes it
// with the federation's scheduler failing to open, so the activation
// fails — and fences its epoch — as one on a corrupt shard does. Once
// the verdicts are closed (decide), every activate passes.
type activateGate struct {
	// entered gets one send per activate that arrives, while its buffer
	// has room; a handler never waits on the test to look.
	entered chan struct{}
	verdict chan bool
}

// gateActivate puts an activateGate in front of node i.
func gateActivate(t *testing.T, tc *testCluster, i int) *activateGate {
	g := &activateGate{entered: make(chan struct{}, 8), verdict: make(chan bool)}
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) }) // before the node's Close, which waits for the handler
	real := tc.servers[i].Handler()
	h := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/admin/handoff/activate" {
			select {
			case g.entered <- struct{}{}:
			default:
			}
			select {
			case pass, ok := <-g.verdict:
				if ok && !pass {
					sched := tc.servers[i].tenants[r.URL.Query().Get("federation")].sched.(*stubSched)
					sched.setFailOpen(errors.New("injected: activation failed"))
					defer sched.setFailOpen(nil)
				}
			case <-stop:
			}
		}
		real.ServeHTTP(w, r)
	}))
	tc.late[i].h.Store(&h)
	return g
}

// decide gives one held activate its verdict and passes every later one,
// such as the source's re-send.
func (g *activateGate) decide(pass bool) {
	g.verdict <- pass
	close(g.verdict)
}

// await blocks until an activate has reached the gate.
func (g *activateGate) await(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the handoff never reached its activate")
	}
}

// startHandoff asks node from to hand fed to node to, in the
// background; the channel receives the answer's status (0: no answer).
func startHandoff(tc *testCluster, fed string, from, to int) <-chan int {
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(tc.https[from].URL+"/v1/admin/handoff?federation="+url.QueryEscape(fed)+"&target="+tc.members[to].ID, "", nil)
		if err != nil {
			status <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	return status
}

// submitResult is what one submission sent from a goroutine got back.
type submitResult struct {
	status   int
	location string
	qr       QueryResponse
	err      error
}

// submitAsync posts one alpha submission to url without following
// redirects, in the background.
func submitAsync(url string, timeoutMS int64) <-chan submitResult {
	out := make(chan submitResult, 1)
	go func() {
		body, _ := json.Marshal(QueryRequest{Federation: "alpha", Query: "Q12", Weights: []float64{1, 1}, TimeoutMS: timeoutMS})
		resp, err := noRedirectClient.Post(url+"/v1/queries", "application/json", bytes.NewReader(body))
		if err != nil {
			out <- submitResult{err: err}
			return
		}
		defer resp.Body.Close()
		res := submitResult{status: resp.StatusCode, location: resp.Header.Get("Location")}
		if res.status == http.StatusOK {
			res.err = json.NewDecoder(resp.Body).Decode(&res.qr)
		}
		out <- res
	}()
	return out
}

// TestClusterHandoffHoldsAtSource: while a handoff waits on its
// activate, the source holds the federation's submissions — no 307 at a
// target that does not serve yet — and a held submission does not keep
// the move's drain waiting. One whose deadline passes first gets 503.
// Released by the commit, a held submission completes on the target
// after one redirect; released by a failed activation, it is served
// where it waited.
func TestClusterHandoffHoldsAtSource(t *testing.T) {
	for _, commit := range []bool{true, false} {
		t.Run(fmt.Sprintf("commit=%v", commit), func(t *testing.T) {
			tc := newTestCluster(t, 2, []string{"alpha"})
			owner := tc.ownerIdx(t, "alpha")
			target := 1 - owner
			gate := gateActivate(t, tc, target)
			handoff := startHandoff(tc, "alpha", owner, target)
			gate.await(t)
			src := tc.servers[owner].tenants["alpha"]
			if st := src.state.Load(); st != cluster.Sending {
				t.Fatalf("source is %s at the activate, want sending", tenantStateName(st))
			}

			held := submitAsync(tc.https[owner].URL, 0)
			expired := <-submitAsync(tc.https[owner].URL, 50)
			if expired.err != nil || expired.status != http.StatusServiceUnavailable {
				t.Fatalf("a submission past its deadline mid-handoff = %d %v, want 503", expired.status, expired.err)
			}
			select {
			case res := <-held:
				t.Fatalf("the source answered %d (Location %q) while the activate was pending, want it held", res.status, res.location)
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := src.drainInflight(ctx); err != nil {
				t.Fatalf("a held submission kept the drain waiting: %v", err)
			}

			gate.decide(commit)
			status := <-handoff
			res := <-held
			if res.err != nil {
				t.Fatal(res.err)
			}
			if !commit {
				if status == http.StatusOK {
					t.Fatal("handoff with a failed activation succeeded")
				}
				if res.status != http.StatusOK || res.qr.Node != tc.members[owner].ID {
					t.Fatalf("held submission after the rollback = %d from %q, want 200 from the source", res.status, res.qr.Node)
				}
				return
			}
			if status != http.StatusOK {
				t.Fatalf("handoff = %d", status)
			}
			if res.status != http.StatusTemporaryRedirect || res.location != tc.members[target].Addr+"/v1/queries" {
				t.Fatalf("held submission after the commit = %d to %q, want 307 to the target", res.status, res.location)
			}
			res = <-submitAsync(tc.members[target].Addr, 0)
			if res.err != nil || res.status != http.StatusOK || res.qr.Node != tc.members[target].ID {
				t.Fatalf("the redirected submission = %d from %q (%v), want 200 from the target", res.status, res.qr.Node, res.err)
			}
		})
	}
}

// TestClusterHandoffSettleAfterTargetMovedOn: the source loses the ack of
// an activate the target committed and cannot read the target's table,
// so the move is settled in the background. Meanwhile the target hands
// the federation on to a third node. When the source finally reads the
// target's table, the target is remote — but the table names the third
// node, so the move committed: the source must stop serving, not roll
// back into a second owner that no later table would ever demote.
func TestClusterHandoffSettleAfterTargetMovedOn(t *testing.T) {
	tc := newTestClusterCfg(t, 3, []string{"alpha"}, func(_ int, cfg *Config) {
		cfg.Cluster.SyncInterval = 20 * time.Millisecond
	})
	src := tc.ownerIdx(t, "alpha")
	mid, last := (src+1)%3, (src+2)%3

	// While blind, every activate mid receives runs, but its caller gets
	// a 502, and mid's /v1/cluster answers 502 too.
	var blind atomic.Bool
	blind.Store(true)
	real := tc.servers[mid].Handler()
	wrapped := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case !blind.Load():
		case r.URL.Path == "/v1/admin/handoff/activate":
			real.ServeHTTP(httptest.NewRecorder(), r)
			http.Error(w, "injected: ack lost", http.StatusBadGateway)
			return
		case r.URL.Path == "/v1/cluster":
			http.Error(w, "injected: unreachable", http.StatusBadGateway)
			return
		}
		real.ServeHTTP(w, r)
	}))
	tc.late[mid].h.Store(&wrapped)

	if status := <-startHandoff(tc, "alpha", src, mid); status == http.StatusOK {
		t.Fatal("handoff whose activate was never acked succeeded")
	}
	if st := tc.servers[mid].tenants["alpha"].state.Load(); st != cluster.Active {
		t.Fatalf("mid is %s after its activate, want active", tenantStateName(st))
	}
	if st := tc.servers[src].tenants["alpha"].state.Load(); st != cluster.Sending {
		t.Fatalf("source is %s with the outcome unknown, want sending", tenantStateName(st))
	}
	if status := <-startHandoff(tc, "alpha", mid, last); status != http.StatusOK {
		t.Fatalf("mid's handoff on to the third node = %d", status)
	}

	blind.Store(false)
	srcTenant := tc.servers[src].tenants["alpha"]
	waitFor(t, 10*time.Second, func() bool { return srcTenant.state.Load() != cluster.Sending },
		func() string { return "the source never settled the handoff" })
	for i, srv := range tc.servers {
		want := int32(cluster.Remote)
		if i == last {
			want = cluster.Active
		}
		if st := srv.tenants["alpha"].state.Load(); st != want {
			t.Errorf("node %d is %s, want %s", i, tenantStateName(st), tenantStateName(want))
		}
	}
	resp, body := postQueryNoRedirect(t, tc.https[src].URL, QueryRequest{Federation: "alpha", Query: "Q12", Weights: []float64{1, 1}})
	if resp.StatusCode != http.StatusTemporaryRedirect || resp.Header.Get("Location") != tc.members[last].Addr+"/v1/queries" {
		t.Fatalf("source answered %d (Location %q): %s, want a 307 to the third node", resp.StatusCode, resp.Header.Get("Location"), body)
	}
}

// TestClusterHandoffLateActivateRefused: the source's first activate
// reaches the target's handler only after the source has given up on it
// — its POST timed out, the re-send failed opening the federation, the
// next was refused, and the source, reading the target's table, rolled
// back and serves again. The late activate must not open the federation
// behind the source's back: the target refuses it, and the writes the
// source acks after the rollback stay the federation's.
func TestClusterHandoffLateActivateRefused(t *testing.T) {
	tc := newTestClusterCfg(t, 2, []string{"alpha"}, func(_ int, cfg *Config) {
		cfg.Cluster.PeerTimeout = 300 * time.Millisecond
		cfg.Cluster.SyncInterval = 20 * time.Millisecond
	})
	owner := tc.ownerIdx(t, "alpha")
	target := 1 - owner
	sched := tc.servers[target].tenants["alpha"].sched.(*stubSched)

	// The first activate waits until the target's table has been read;
	// the second fails opening the federation; the rest go through.
	read := make(chan struct{})
	markRead := sync.OnceFunc(func() { close(read) })
	t.Cleanup(markRead) // before the node's Close, which waits for the handler
	late := make(chan int, 1)
	var activates atomic.Int32
	real := tc.servers[target].Handler()
	h := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/cluster":
			real.ServeHTTP(w, r)
			markRead()
			return
		case r.URL.Path != "/v1/admin/handoff/activate":
		default:
			switch activates.Add(1) {
			case 1:
				<-read
				rec := httptest.NewRecorder()
				real.ServeHTTP(rec, r)
				late <- rec.Code
				return
			case 2:
				sched.setFailOpen(errors.New("injected: activation failed"))
				defer sched.setFailOpen(nil)
			}
		}
		real.ServeHTTP(w, r)
	}))
	tc.late[target].h.Store(&h)

	if status := <-startHandoff(tc, "alpha", owner, target); status == http.StatusOK {
		t.Fatal("handoff whose activate timed out and then failed succeeded")
	}
	select {
	case code := <-late:
		if code != http.StatusConflict {
			t.Fatalf("the late activate = %d, want 409", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the late activate never ran")
	}
	src := tc.servers[owner].tenants["alpha"]
	waitFor(t, 10*time.Second, func() bool { return src.state.Load() == cluster.Active },
		func() string { return "the source never rolled back" })
	res := <-submitAsync(tc.https[owner].URL, 0)
	if res.err != nil || res.status != http.StatusOK || res.qr.Node != tc.members[owner].ID {
		t.Fatalf("submission after the rollback = %d from %q (%v), want 200 from the source", res.status, res.qr.Node, res.err)
	}
	for _, srv := range tc.servers { // for a stray activation to surface
		waitPasses(t, srv, 2)
	}
	if st := tc.servers[target].tenants["alpha"].state.Load(); st != cluster.Remote {
		t.Fatalf("target is %s after refusing the late activate, want remote", tenantStateName(st))
	}
	if st := src.state.Load(); st != cluster.Active {
		t.Fatalf("source is %s after acking a write, want active", tenantStateName(st))
	}
	for i := range tc.https {
		if cr := getClusterTable(t, tc.https[i].URL); cr.Placements["alpha"].Owner != tc.members[owner].ID {
			t.Fatalf("node %d places alpha on %q, want the source", i, cr.Placements["alpha"].Owner)
		}
	}
}

// TestClusterHandoffActivateFence: a handoff's activate at an epoch no
// later than the target's fence is refused before anything opens: epoch
// 0, which names no handoff; one minted before the target booted; one
// re-sent after an activate at its epoch failed there. A newer one
// activates, and re-sent, answers again with the committed epoch.
func TestClusterHandoffActivateFence(t *testing.T) {
	tc := newTestCluster(t, 2, []string{"alpha"})
	target := 1 - tc.ownerIdx(t, "alpha")
	tn := tc.servers[target].tenants["alpha"]
	sched := tn.sched.(*stubSched)
	activate := tc.https[target].URL + "/v1/admin/handoff/activate?federation=alpha&epoch="
	sched.setFailOpen(errors.New("injected: activation failed"))
	for _, c := range []struct {
		epoch string
		want  int
	}{
		{"0", http.StatusConflict},
		{"1", http.StatusConflict},
		{"2", http.StatusInternalServerError},
		{"2", http.StatusConflict},
	} {
		if status, body := postStatus(t, activate+c.epoch); status != c.want {
			t.Fatalf("activate at epoch %s = %d: %s, want %d", c.epoch, status, body, c.want)
		}
		if st := tn.state.Load(); st != cluster.Remote {
			t.Fatalf("target is %s after a refused activate, want remote", tenantStateName(st))
		}
	}
	sched.setFailOpen(nil)
	if status, body := postStatus(t, activate+"2"); status != http.StatusConflict {
		t.Fatalf("activate re-sent after a failure at its epoch = %d: %s, want 409", status, body)
	}
	for range 2 {
		if status, body := postStatus(t, activate+"3"); status != http.StatusOK || !strings.Contains(body, `"epoch":3`) {
			t.Fatalf("activate at a newer epoch = %d: %s, want 200 at epoch 3", status, body)
		}
	}
	if st := tn.state.Load(); st != cluster.Active {
		t.Fatalf("target is %s after the newer activate, want active", tenantStateName(st))
	}
}

// TestClusterHeldSubmissionsRespectQueueDepth: the submissions a
// handoff holds at its source leave the in-flight count while they wait
// — the move's drain must not wait on them — but released by the
// rollback they are admitted against QueueDepth like any others: with
// sweeps stalled, QueueDepth of them run and the rest get 429.
func TestClusterHeldSubmissionsRespectQueueDepth(t *testing.T) {
	const depth, held = 2, 5
	tc := newTestClusterCfg(t, 2, []string{"alpha"}, func(_ int, cfg *Config) { cfg.QueueDepth = depth })
	owner := tc.ownerIdx(t, "alpha")
	target := 1 - owner
	stall := make(chan struct{})
	sched := tc.servers[owner].tenants["alpha"].sched.(*stubSched)
	sched.mu.Lock()
	sched.block = stall
	sched.mu.Unlock()
	unstall := sync.OnceFunc(func() { close(stall) })
	t.Cleanup(unstall)

	gate := gateActivate(t, tc, target)
	handoff := startHandoff(tc, "alpha", owner, target)
	gate.await(t)
	results := make(chan submitResult, held)
	for range held {
		go func() { results <- <-submitAsync(tc.https[owner].URL, 0) }()
	}
	time.Sleep(100 * time.Millisecond) // for every submission to reach the hold
	gate.decide(false)
	if status := <-handoff; status == http.StatusOK {
		t.Fatal("handoff with a failed activation succeeded")
	}
	next := func() submitResult {
		t.Helper()
		select {
		case res := <-results:
			if res.err != nil {
				t.Fatal(res.err)
			}
			return res
		case <-time.After(10 * time.Second):
			t.Fatal("a released submission never answered")
		}
		return submitResult{}
	}
	for range held - depth {
		if res := next(); res.status != http.StatusTooManyRequests {
			t.Fatalf("released submission = %d, want 429 past QueueDepth %d", res.status, depth)
		}
	}
	unstall()
	for range depth {
		if res := next(); res.status != http.StatusOK || res.qr.Node != tc.members[owner].ID {
			t.Fatalf("admitted submission = %d from %q, want 200 from the source", res.status, res.qr.Node)
		}
	}
}

// TestClusterConcurrentHandoffsToOneNode: two owners each hand a
// federation to the same node at once, both minting their activate's
// epoch from the same table. Both moves commit — an activate is fenced
// only by the ones of its own federation — and every table converges on
// the target owning both.
func TestClusterConcurrentHandoffsToOneNode(t *testing.T) {
	ring, err := cluster.NewRing([]cluster.Member{{ID: "n0"}, {ID: "n1"}, {ID: "n2"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	feds := make(map[int]string) // owner index → a federation it owns
	for i := 0; len(feds) < 2; i++ {
		name := fmt.Sprintf("fed%d", i)
		switch owner := ring.Owner(name).ID; owner {
		case "n0", "n1":
			if idx := int(owner[1] - '0'); feds[idx] == "" {
				feds[idx] = name
			}
		}
	}
	tc := newTestCluster(t, 3, []string{feds[0], feds[1]})
	gate := gateActivate(t, tc, 2)
	first := startHandoff(tc, feds[0], 0, 2)
	second := startHandoff(tc, feds[1], 1, 2)
	gate.await(t)
	gate.await(t)
	gate.decide(true)
	for i, status := range []int{<-first, <-second} {
		if status != http.StatusOK {
			t.Fatalf("handoff of %s = %d, want both to commit", feds[i], status)
		}
	}
	for i := range 2 {
		if st := tc.servers[2].tenants[feds[i]].state.Load(); st != cluster.Active {
			t.Fatalf("%s is %s on the target, want active", feds[i], tenantStateName(st))
		}
		if st := tc.servers[i].tenants[feds[i]].state.Load(); st != cluster.Remote {
			t.Fatalf("%s is %s on its source, want remote", feds[i], tenantStateName(st))
		}
	}
	var tables []ClusterResponse
	waitFor(t, 10*time.Second, func() bool {
		tables = tables[:0]
		for i := range tc.https {
			tables = append(tables, getClusterTable(t, tc.https[i].URL))
		}
		for _, cr := range tables {
			if cr.Epoch != tables[0].Epoch || cr.Placements[feds[0]].Owner != "n2" || cr.Placements[feds[1]].Owner != "n2" {
				return false
			}
		}
		return true
	}, func() string { return fmt.Sprintf("tables never converged on n2 owning both: %+v", tables) })
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
	waitFor(t, 5*time.Second, func() bool { return tc.servers[owner].tenants["alpha"].state.Load() == cluster.Remote }, func() string {
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

// TestClusterPartitionedTakeoverHeals: a takeover whose table exchange a
// partition drops leaves two active owners — the old one serving at
// epoch 1 — until a table reaches it. The new owner's retried exchange
// carries it: once the partition heals, exactly one owner is active and
// both tables name it within healBound.
func TestClusterPartitionedTakeoverHeals(t *testing.T) {
	const (
		syncInterval = 50 * time.Millisecond
		healBound    = 40 * syncInterval
	)
	// Table exchanges (route posts) are dropped while partitioned; the
	// takeover itself goes through. Each node's boot exchange has been
	// answered before the partition starts, and the takeover's own
	// exchange has been dropped before it heals.
	var partitioned atomic.Bool
	var answered, dropped [2]atomic.Int32
	tc := newWrappedTestCluster(t, 2, []string{"alpha"}, func(_ int, cfg *Config) { cfg.Cluster.SyncInterval = syncInterval },
		func(i int, real http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/admin/route" {
					if partitioned.Load() {
						dropped[i].Add(1)
						http.Error(w, "injected: partitioned", http.StatusServiceUnavailable)
						return
					}
					defer answered[i].Add(1)
				}
				real.ServeHTTP(w, r)
			})
		})
	waitFor(t, 5*time.Second, func() bool { return answered[0].Load() > 0 && answered[1].Load() > 0 }, nil)
	partitioned.Store(true)
	owner := tc.ownerIdx(t, "alpha")
	other := 1 - owner

	if status, body := postStatus(t, tc.https[other].URL+"/v1/admin/takeover?federation=alpha"); status != http.StatusOK {
		t.Fatalf("takeover = %d: %s", status, body)
	}
	waitFor(t, 5*time.Second, func() bool { return dropped[owner].Load() > 0 }, nil)
	if st, epoch := tc.servers[owner].tenants["alpha"].state.Load(), tc.servers[owner].cluster.table.Load().Epoch(); st != cluster.Active || epoch != 1 {
		t.Fatalf("partitioned old owner is %s at epoch %d, want active at 1: the partition leaked", tenantStateName(st), epoch)
	}

	partitioned.Store(false)
	healed := time.Now()
	waitFor(t, healBound, func() bool {
		return tc.servers[owner].tenants["alpha"].state.Load() == cluster.Remote &&
			tc.servers[other].tenants["alpha"].state.Load() == cluster.Active
	}, func() string {
		return fmt.Sprintf("%v after the heal: old owner %s at epoch %d, new owner %s at epoch %d", healBound,
			tenantStateName(tc.servers[owner].tenants["alpha"].state.Load()), tc.servers[owner].cluster.table.Load().Epoch(),
			tenantStateName(tc.servers[other].tenants["alpha"].state.Load()), tc.servers[other].cluster.table.Load().Epoch())
	})
	for i := range tc.https {
		if cr := getClusterTable(t, tc.https[i].URL); cr.Epoch < 2 || cr.Placements["alpha"].Owner != tc.members[other].ID {
			t.Fatalf("node %d's table after the heal: epoch %d places alpha on %q", i, cr.Epoch, cr.Placements["alpha"].Owner)
		}
	}
	t.Logf("one owner %v after the heal", time.Since(healed))
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

	// The target never answers an activate: at first it fails at once,
	// later it hangs until answer closes, then acks it.
	var hang atomic.Bool
	entered, answer := make(chan struct{}), make(chan struct{})
	var enter sync.Once
	respond := sync.OnceFunc(func() { close(answer) })
	t.Cleanup(respond) // before the node's Close, which waits for the handler
	real := dst.Handler()
	dstH := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/admin/handoff/activate" && !hang.Load():
			http.Error(w, "injected: target unreachable", http.StatusBadGateway)
		case r.URL.Path == "/v1/admin/handoff/activate":
			enter.Do(func() { close(entered) })
			<-answer
			writeJSON(w, http.StatusOK, map[string]uint64{"epoch": 2})
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
	if got := atReturn.states[stale]; got != cluster.Remote {
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
// cluster state is built leaves no file open, the routing table's
// included — on a tenant with an unknown topology, and on an owned
// tenant whose activation fails on a corrupt Q13 header after Q12 is
// open.
func TestClusterNewFailureReleasesFiles(t *testing.T) {
	dir := t.TempDir()
	// Only the descriptors open on the data directory count: other tests'
	// sockets and files come and go in the same process.
	root, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	openFiles := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no per-process fd table: %v", err)
		}
		n := 0
		for _, fd := range fds {
			if path, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(path, root+string(filepath.Separator)) {
				n++
			}
		}
		return n
	}
	q13 := filepath.Join(dir, "alpha", "Q13")
	if err := os.MkdirAll(q13, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(q13, "snapshot.json"), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec FederationSpec
	}{
		{"unknown topology", FederationSpec{Name: "alpha", Topology: "no-such-topology"}},
		{"corrupt Q13 header", FederationSpec{Name: "alpha", SF: 0.05, NodeChoices: []int{1, 2}, Bootstrap: 7, Queries: []string{"Q12", "Q13"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Federations: []FederationSpec{tc.spec},
				Store:       StoreConfig{Dir: dir},
				Cluster:     &ClusterConfig{NodeID: "n0", Peers: []cluster.Member{{ID: "n0", Addr: "http://127.0.0.1:1"}}},
			}
			newFails := func() {
				t.Helper()
				if _, err := New(cfg); err == nil {
					t.Fatal("New accepted the spec")
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
		})
	}
}

// TestAdoptTableMergesEqualEpochs: every table a commit installs — a
// pin, an equal-epoch merge, a newer table, a fence — is the one a
// restart recovers from the route log. The algebra itself is checked in
// internal/cluster (TestTableAlgebraConverges).
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
	for _, step := range []struct {
		branch string
		next   func(cur *cluster.Table) *cluster.Table
		epoch  uint64
	}{
		{"a pin", func(cur *cluster.Table) *cluster.Table { return cur.Pin("f1", "b", 2) }, 2},
		{"an equal-epoch merge", func(cur *cluster.Table) *cluster.Table { return cur.Adopt(2, map[string]string{"f2": "c"}) }, 3},
		{"a newer table", func(cur *cluster.Table) *cluster.Table { return cur.Adopt(6, map[string]string{"f3": "b"}) }, 6},
		{"a fence", func(cur *cluster.Table) *cluster.Table { return cur.Fence(9) }, 9},
	} {
		tab := cs.commit(step.next)
		if tab.Epoch() != step.epoch || tab != cs.table.Load() {
			t.Fatalf("after %s the table in force is epoch %d, want %d", step.branch, cs.table.Load().Epoch(), step.epoch)
		}
		log, err := cluster.OpenRouteLog(filepath.Join(dir, "_cluster", "routes.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if epoch, ov := log.Last(); epoch != tab.Epoch() || !maps.Equal(ov, tab.Overrides()) {
			t.Fatalf("after %s the route log recovers epoch %d %v, the table in force is epoch %d %v",
				step.branch, epoch, ov, tab.Epoch(), tab.Overrides())
		}
		if got := mk(dir).table.Load(); got.Epoch() != tab.Epoch() || !maps.Equal(got.Overrides(), tab.Overrides()) {
			t.Fatalf("after %s a restart recovers epoch %d %v, want epoch %d %v",
				step.branch, got.Epoch(), got.Overrides(), tab.Epoch(), tab.Overrides())
		}
	}
}

// TestClusterEpochWithoutSuccessorRefused: an epoch of 2⁶⁴−1 from
// outside, whether a peer's table or a handoff's activate, is refused
// with 400 and leaves the table where it was. Adopted, it would leave no
// epoch for the node's next move to mint: that move would wrap the table
// to epoch 0 and the next exchange would undo it.
func TestClusterEpochWithoutSuccessorRefused(t *testing.T) {
	tc := newTestCluster(t, 2, []string{"alpha"})
	remote := 1 - tc.ownerIdx(t, "alpha")
	node := tc.https[remote].URL
	before := tc.servers[remote].cluster.table.Load()
	resp, err := http.Post(node+"/v1/admin/route", "application/json",
		strings.NewReader(`{"epoch":18446744073709551615,"overrides":{"alpha":"n0"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("route update at epoch 2^64-1 = %d, want 400", resp.StatusCode)
	}
	if status, body := postStatus(t, node+"/v1/admin/handoff/activate?federation=alpha&epoch=18446744073709551615"); status != http.StatusBadRequest {
		t.Fatalf("activate at epoch 2^64-1 = %d: %s, want 400", status, body)
	}
	if tab := tc.servers[remote].cluster.table.Load(); tab != before {
		t.Fatalf("table moved to epoch %d %v, want epoch %d kept", tab.Epoch(), tab.Overrides(), before.Epoch())
	}
	if st := tc.servers[remote].tenants["alpha"].state.Load(); st != cluster.Remote {
		t.Fatalf("alpha is %s after a refused activate, want remote", tenantStateName(st))
	}
	// The next move still mints an epoch above the last.
	if status, body := postStatus(t, node+"/v1/admin/takeover?federation=alpha"); status != http.StatusOK {
		t.Fatalf("takeover = %d: %s", status, body)
	}
	if got := tc.servers[remote].cluster.table.Load().Epoch(); got != before.Epoch()+1 {
		t.Fatalf("takeover committed epoch %d, want %d", got, before.Epoch()+1)
	}
}

// topEpoch brings node i's table to epoch 2^64-1 with alpha placed on
// member owner: a table at 2^64-2, then a different override set at the
// same epoch, which merges one past it.
func topEpoch(t *testing.T, tc *testCluster, i int, owner string) {
	t.Helper()
	for _, body := range []string{`{"epoch":18446744073709551614,"overrides":{"alpha":"` + owner + `"}}`, `{"epoch":18446744073709551614}`} {
		resp, err := http.Post(tc.https[i].URL+"/v1/admin/route", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("route update %s = %d", body, resp.StatusCode)
		}
	}
	if tab := tc.servers[i].cluster.table.Load(); tab.Epoch() != math.MaxUint64 || tab.Owner("alpha").ID != owner {
		t.Fatalf("table at epoch %d placing alpha on %s, want 2^64-1 and %s", tab.Epoch(), tab.Owner("alpha").ID, owner)
	}
}

// TestClusterActivationRefusedAtTopEpoch: at epoch 2^64-1 no pin can
// commit, so a takeover of a federation the table places on the other
// node is refused with 409 and leaves the tenant remote, not active
// beside the owner.
func TestClusterActivationRefusedAtTopEpoch(t *testing.T) {
	tc := newTestCluster(t, 2, []string{"alpha"})
	owner := tc.ownerIdx(t, "alpha")
	remote := 1 - owner
	topEpoch(t, tc, remote, tc.members[owner].ID)
	if status, body := postStatus(t, tc.https[remote].URL+"/v1/admin/takeover?federation=alpha"); status != http.StatusConflict {
		t.Fatalf("takeover at the top epoch = %d: %s, want 409", status, body)
	}
	if st := tc.servers[remote].tenants["alpha"].state.Load(); st != cluster.Remote {
		t.Fatalf("alpha is %s after a refused takeover, want remote", tenantStateName(st))
	}
	if got := tc.servers[remote].cluster.table.Load().Owner("alpha").ID; got != tc.members[owner].ID {
		t.Fatalf("table places alpha on %s, want %s", got, tc.members[owner].ID)
	}
}

// TestClusterHandoffRefusedAtTopEpoch: a handoff at epoch 2^64-1 would
// mint epoch 0, so it is refused with 409 before anything is held or
// sent to the target, and the source keeps serving.
func TestClusterHandoffRefusedAtTopEpoch(t *testing.T) {
	var activates [2]atomic.Int32
	tc := newWrappedTestCluster(t, 2, []string{"alpha"}, nil, func(i int, real http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/admin/handoff/activate" {
				activates[i].Add(1)
			}
			real.ServeHTTP(w, r)
		})
	})
	owner := tc.ownerIdx(t, "alpha")
	topEpoch(t, tc, owner, tc.members[owner].ID)
	url := tc.https[owner].URL + "/v1/admin/handoff?federation=alpha&target=" + tc.members[1-owner].ID
	if status, body := postStatus(t, url); status != http.StatusConflict {
		t.Fatalf("handoff at the top epoch = %d: %s, want 409", status, body)
	}
	if n := activates[1-owner].Load(); n != 0 {
		t.Fatalf("the target was asked to activate %d times", n)
	}
	if st := tc.servers[owner].tenants["alpha"].state.Load(); st != cluster.Active {
		t.Fatalf("alpha is %s at the source after a refused handoff, want active", tenantStateName(st))
	}
	resp, body := postQueryNoRedirect(t, tc.https[owner].URL, QueryRequest{Federation: "alpha", Query: "Q12", Weights: []float64{1, 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("source answered %d after a refused handoff: %s", resp.StatusCode, body)
	}
}

// TestClusterAutoRebalanceRequiresAutoFailover: rebalancing rides the
// failure detector, so a config asking for it without AutoFailover is
// refused by both constructors rather than silently never rebalancing.
func TestClusterAutoRebalanceRequiresAutoFailover(t *testing.T) {
	cfg := Config{Cluster: &ClusterConfig{
		NodeID:        "a",
		Peers:         []cluster.Member{{ID: "a", Addr: "http://a"}, {ID: "b", Addr: "http://b"}},
		AutoRebalance: true,
	}}
	if _, err := NewWithSchedulers(cfg, map[string]QueryScheduler{"alpha": &stubSched{}}, tpch.AllQueries); err == nil || !strings.Contains(err.Error(), "AutoFailover") {
		t.Fatalf("NewWithSchedulers = %v, want an AutoFailover error", err)
	}
	cfg.Federations = []FederationSpec{{Name: "alpha"}}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "AutoFailover") {
		t.Fatalf("New = %v, want an AutoFailover error", err)
	}
}

// TestRedirectBodyGolden pins a 307's body, byte for byte, and its
// Location. The federation name needs quoting and JSON's HTML escapes,
// so the golden holds every escape the body's rendering must reproduce;
// the request is repeated so that a second rendering through the same
// pooled scratch is checked too.
func TestRedirectBodyGolden(t *testing.T) {
	const fed = `ward<7>&"north"\east`
	tc := newTestCluster(t, 2, []string{fed})
	owner := tc.ownerIdx(t, fed)
	want, err := os.ReadFile(filepath.Join("testdata", "redirect-body.golden"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(QueryRequest{Federation: fed, Query: "Q12", Weights: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		tc.servers[1-owner].Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/queries", bytes.NewReader(body)))
		if rec.Code != http.StatusTemporaryRedirect {
			t.Fatalf("request %d: status %d, want 307: %s", i, rec.Code, rec.Body.String())
		}
		if loc, wantLoc := rec.Header().Get("Location"), tc.members[owner].Addr+"/v1/queries"; loc != wantLoc {
			t.Errorf("request %d: Location %q, want %q", i, loc, wantLoc)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("request %d: body %q, golden %q", i, rec.Body.Bytes(), want)
		}
	}
}

// TestRedirectAllocBudget holds a redirected submission — what two of
// three requests to a three-node cluster are — to a budget. It skips
// under -race, where sync.Pool drops the request scratch at random.
func TestRedirectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tc := newTestCluster(t, 2, []string{"alpha"})
	other := tc.servers[1-tc.ownerIdx(t, "alpha")]
	body := []byte(`{"federation": "alpha", "query": "Q12", "weights": [1, 1]}`)
	var resp bytes.Buffer
	allocs := testing.AllocsPerRun(200, func() {
		resp.Reset()
		if status := other.ServeSubmit(context.Background(), body, &resp); status != http.StatusTemporaryRedirect {
			t.Fatalf("status %d, want 307: %s", status, resp.String())
		}
	})
	// The decoded federation and query names and the redirect's Location
	// repeat, so the scratch reuses them; the body is appended.
	const budget = 0
	t.Logf("%.1f allocs per redirected submission, budget %d", allocs, budget)
	if allocs > budget {
		t.Errorf("redirected submission: over the allocation budget")
	}
}

// headerWriter is a ResponseWriter that keeps one header map and
// discards the rest, so writing a response through it allocates only
// what the handler's own code does.
type headerWriter http.Header

func (w headerWriter) Header() http.Header         { return http.Header(w) }
func (w headerWriter) WriteHeader(int)             {}
func (w headerWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestRedirectHeaderDoesNotAllocate: a 307's Location header is the
// scratch's own value slice, assigned as the Content-Type is, not a new
// one per redirect.
func TestRedirectHeaderDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w := headerWriter{}
	var sc serveScratch
	sc.location[0] = "http://owner/v1/queries"
	body := []byte(`{"error":"moved"}`)
	allocs := testing.AllocsPerRun(200, func() {
		writeBuffered(w, http.StatusTemporaryRedirect, sc.location[:], body)
	})
	if allocs != 0 {
		t.Errorf("writing a 307 allocates %.1f times", allocs)
	}
	if got := http.Header(w).Get("Location"); got != sc.location[0] {
		t.Errorf("Location = %q, want %q", got, sc.location[0])
	}
}
