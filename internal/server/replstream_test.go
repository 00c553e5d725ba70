package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/histstore"
	"repro/internal/tpch"
)

// streamState reads the owner end of fed's replication stream.
func streamState(srv *Server, fed string) (peer string, open, closed bool) {
	st := srv.cluster.streams[fed]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.peer, st.conn != nil, st.closed
}

// acceptedStreams counts the upgraded connections srv is serving.
func acceptedStreams(srv *Server) int {
	cs := srv.cluster
	cs.acceptedMu.Lock()
	defer cs.acceptedMu.Unlock()
	return len(cs.accepted)
}

// streamGoroutines counts the goroutines, process-wide, that are inside
// the standby's batch loop.
func streamGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), ".serveReplicaStream(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// replicaSeq reads how far srv's replica of paper/Q12 reaches.
func replicaSeq(t *testing.T, srv *Server) int {
	t.Helper()
	next, err := srv.tenants["paper"].store.ReplicaSeq("Q12")
	if err != nil {
		t.Fatal(err)
	}
	return int(next)
}

// TestStreamStandbyKilledAfterWrites: the standby dies — listener and
// every connection, as SIGKILL leaves them — after the stream has carried
// writes. The next write still acks, well inside PeerTimeout, on local
// durability; the owner says so on /readyz; and once the standby is back
// the sync loop re-arms the stream without losing a frame.
func TestStreamStandbyKilledAfterWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	const peerTimeout = 5 * time.Second
	servers, https, members, owner, _ := newReplicatedPairCfg(t, func(cc *ClusterConfig) { cc.PeerTimeout = peerTimeout })
	standby := 1 - owner
	cs := servers[owner].cluster
	rep := cs.repl["paper"]

	for i := 0; i < 3; i++ {
		chaosSubmit(t, https[owner].URL)
	}
	if peer, open, _ := streamState(servers[owner], "paper"); !open || peer != members[standby].Addr {
		t.Fatalf("after three acked writes the stream is open=%v to %q, want open to %q", open, peer, members[standby].Addr)
	}
	if got := cs.framesShipped.Value(); got < 3 {
		t.Fatalf("%v frames shipped for three acked writes", got)
	}
	if got, want := replicaSeq(t, servers[standby]), chaosHistLen(t, https[owner].URL); got != want {
		t.Fatalf("standby holds %d observations, owner acked %d", got, want)
	}
	if n := cs.streams["paper"].seconds.Count(); n < 3 {
		t.Fatalf("midas_replication_ship_seconds counted %d ships, want ≥ 3", n)
	}

	https[standby].Kill()
	began := time.Now()
	chaosSubmit(t, https[owner].URL)
	if took := time.Since(began); took >= peerTimeout {
		t.Fatalf("the write after the kill took %v, PeerTimeout is %v", took, peerTimeout)
	}
	// The ack waited for the ship to fail, so the verdict is already in.
	if !rep.Degraded("Q12") {
		t.Fatal("the stream into a killed standby did not degrade")
	}
	if got := cs.replDegradedN.Value(); got != 1 {
		t.Fatalf("replication_degraded_total = %v, want 1", got)
	}
	for i := 0; i < 3; i++ {
		chaosSubmit(t, https[owner].URL)
	}
	resp, err := http.Get(https[owner].URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rz struct {
		Status   string   `json:"status"`
		Degraded []string `json:"degraded"`
	}
	err = json.NewDecoder(resp.Body).Decode(&rz)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable || rz.Status != "degraded" || fmt.Sprint(rz.Degraded) != "[paper]" {
		t.Fatalf("readyz on the degraded owner = %d %+v (%v)", resp.StatusCode, rz, err)
	}

	// Restart the standby on its data directory and its old address. The
	// dead incarnation's files are released first, which is all its Drain
	// still has to do.
	if err := servers[standby].Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	cfg := servers[standby].cfg
	cfg.Metrics = nil // a registry backs one Server
	reborn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	newTestNode(t, https[standby].Listener.Addr().String(), reborn.Handler())
	waitFor(t, 15*time.Second, func() bool { return rep.Streaming("Q12") })
	for i := 0; i < 2; i++ {
		chaosSubmit(t, https[owner].URL)
	}
	if got, want := replicaSeq(t, reborn), chaosHistLen(t, https[owner].URL); got != want {
		t.Fatalf("restarted standby holds %d observations, owner acked %d", got, want)
	}
	for _, srv := range []*Server{servers[owner], reborn} {
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDrainClosesStreams: http.Server.Close does not know a hijacked
// connection, so Drain ends the streams itself — the accepted ones with
// their goroutines gone by the time it returns (the stores they append to
// close next), the dialled ones closed for good.
func TestDrainClosesStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	before := streamGoroutines()
	servers, https, _, owner := newReplicatedPair(t)
	standby := 1 - owner
	for i := 0; i < 2; i++ {
		chaosSubmit(t, https[owner].URL)
	}
	if n := acceptedStreams(servers[standby]); n != 1 {
		t.Fatalf("standby serves %d streams after acked writes, want 1", n)
	}
	if n := streamGoroutines(); n < 1 {
		t.Fatalf("%d goroutines in the batch loop while a stream is open", n)
	}

	if err := servers[standby].Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := acceptedStreams(servers[standby]); n != 0 {
		t.Fatalf("%d accepted streams survive Drain", n)
	}
	if after := streamGoroutines(); after > before {
		t.Fatalf("%d goroutines in the batch loop after Drain, %d before the test", after, before)
	}
	// A drained node takes no new stream.
	conn := dialUpgrade(t, https[standby].URL, "paper", "")
	if status := readStatusLine(t, conn); !strings.Contains(status, " 503 ") {
		t.Fatalf("upgrade on a drained node answered %q, want 503", status)
	}
	conn.Close()

	if err := servers[owner].Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, open, closed := streamState(servers[owner], "paper"); open || !closed {
		t.Fatalf("owner's stream after Drain: open=%v closed=%v", open, closed)
	}
	if err := servers[owner].cluster.streams["paper"].ship("Q12", 0, nil, 0); err != errStreamsClosed {
		t.Fatalf("ship after Drain = %v, want errStreamsClosed", err)
	}
}

// TestStreamRedialsMovedStandby: a ship goes to whichever member the
// table names *now*. The standby is a function of ring and owner, so it
// moves when membership does: the owner's table is swapped for one whose
// ring lacks the old standby. The next ship must leave the old connection
// and dial the new standby, which refuses the gap; the sync loop then arms
// it and frames flow there.
func TestStreamRedialsMovedStandby(t *testing.T) {
	if testing.Short() {
		t.Skip("full serving stack")
	}
	servers, https, members, owner, _ := newReplicatedNodes(t, 3, nil)
	cs := servers[owner].cluster
	old, _ := cs.table.Load().Standby("paper")
	var oldIdx, movedIdx int
	for i, m := range members {
		switch {
		case m.ID == old.ID:
			oldIdx = i
		case i != owner:
			movedIdx = i
		}
	}
	chaosSubmit(t, https[owner].URL)
	if peer, open, _ := streamState(servers[owner], "paper"); !open || peer != old.Addr {
		t.Fatalf("stream open=%v to %q, want open to the standby %q", open, peer, old.Addr)
	}
	waitFor(t, 15*time.Second, func() bool { return acceptedStreams(servers[oldIdx]) == 1 })

	ring, err := cluster.NewRing([]cluster.Member{members[owner], members[movedIdx]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved, _ := cluster.NewTable(ring).WithOverride("paper", members[owner].ID)
	cs.table.Store(moved.WithEpochAtLeast(cs.table.Load().Epoch() + 1))

	chaosSubmit(t, https[owner].URL) // redials, is refused (the new standby holds nothing), degrades
	waitFor(t, 15*time.Second, func() bool { return acceptedStreams(servers[oldIdx]) == 0 })
	waitFor(t, 15*time.Second, func() bool { return cs.repl["paper"].Streaming("Q12") })
	for i := 0; i < 2; i++ {
		chaosSubmit(t, https[owner].URL)
	}
	if peer, open, _ := streamState(servers[owner], "paper"); !open || peer != members[movedIdx].Addr {
		t.Fatalf("stream open=%v to %q, want open to the new standby %q", open, peer, members[movedIdx].Addr)
	}
	if got, want := replicaSeq(t, servers[movedIdx]), chaosHistLen(t, https[owner].URL); got != want {
		t.Fatalf("new standby holds %d observations, owner acked %d", got, want)
	}
	for _, srv := range servers {
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// walFrames records n observations in a scratch store and returns their
// WAL frames (sequences 0..n-1) exactly as histstore wrote them, with the
// size of one: the shape is fixed, so they are all alike.
func walFrames(t testing.TB, n int) (frames []byte, frameSize int) {
	t.Helper()
	dir := t.TempDir()
	s, err := histstore.Open(dir, histstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.OpenHistory("Q12", 2, []string{"time", "money"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := h.Append(core.Observation{X: []float64{float64(i), 1}, Costs: []float64{2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	frames, err = os.ReadFile(filepath.Join(dir, "Q12", "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return frames, len(frames) / n
}

// standbyTenant is a cold tenant over a fresh store in dir: what a
// stream's batch loop needs of a standby.
func standbyTenant(t testing.TB, dir string) *tenant {
	t.Helper()
	store, err := histstore.Open(dir, histstore.Options{Retain: historyRetain})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	tn := newTenant("paper", &stubSched{}, []tpch.QueryID{tpch.QueryQ12})
	tn.state.Store(tenantRemote)
	tn.store = store
	return tn
}

// TestStreamBatches drives both ends of the protocol over a pipe: short
// batches ride with their header, long ones take the two-write /
// direct-read path, overlap is skipped, a gap is refused with 409 and
// ends the stream — and the replica is byte for byte the acked prefix.
func TestStreamBatches(t *testing.T) {
	frames, fs := walFrames(t, 40)
	if 20*fs <= replSmallBatch {
		t.Fatalf("20 frames of %d bytes do not exceed replSmallBatch", fs)
	}
	dir := t.TempDir()
	tn := standbyTenant(t, dir)
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		tn.serveReplicaStream(server)
	}()
	st := &replStream{cs: &clusterState{cfg: ClusterConfig{PeerTimeout: 5 * time.Second}}, fed: "paper", conn: client}
	seq := func() int {
		t.Helper()
		next, err := tn.store.ReplicaSeq("Q12")
		if err != nil {
			t.Fatal(err)
		}
		return int(next)
	}
	for _, b := range []struct{ from, count, want int }{
		{0, 1, 1},    // one frame, one write
		{1, 20, 21},  // long
		{10, 16, 26}, // long, the first 11 already held
		{3, 2, 26},   // all of it already held
	} {
		if err := st.exchange("Q12", uint64(b.from), frames[b.from*fs:(b.from+b.count)*fs], b.count); err != nil {
			t.Fatalf("batch %+v: %v", b, err)
		}
		if got := seq(); got != b.want {
			t.Fatalf("batch %+v: replica reaches %d", b, got)
		}
	}
	if c := cap(st.buf); c > 2*replSmallBatch {
		t.Fatalf("owner keeps a %d-byte buffer after long batches", c)
	}
	err := st.exchange("Q12", 30, frames[30*fs:32*fs], 2)
	if err == nil || !strings.Contains(err.Error(), "409") || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("batch past the replica's tail = %v, want a 409 naming the gap", err)
	}
	<-done // a refused batch ends the standby's loop
	if err := st.exchange("Q12", 26, frames[26*fs:27*fs], 1); err == nil {
		t.Fatal("the stream outlived a refused batch")
	}
	if err := tn.store.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "Q12", "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wal, frames[:26*fs]) {
		t.Fatalf("replica holds %d bytes, want the %d of frames 0..25", len(wal), 26*fs)
	}
}

// dialUpgrade sends the stream handshake for fed to the node at url by
// hand, followed by trailing (bytes a well-behaved owner would not send
// before the 101).
func dialUpgrade(t *testing.T, url, fed, trailing string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	_, err = io.WriteString(conn, "POST "+replStreamPath+"?federation="+fed+" HTTP/1.1\r\nHost: test\r\n"+
		"Connection: Upgrade\r\nUpgrade: "+replStreamProto+"\r\nContent-Length: 0\r\n\r\n"+trailing)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func readStatusLine(t *testing.T, conn net.Conn) string {
	t.Helper()
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("reading the handshake answer: %v (got %q)", err, line)
	}
	return line
}

// TestReplicateStreamHandshake pins what the endpoint answers before it
// becomes a stream, and that the per-batch request it replaces is gone.
func TestReplicateStreamHandshake(t *testing.T) {
	post := func(url string, upgrade bool) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if upgrade {
			req.Header.Set("Connection", "Upgrade")
			req.Header.Set("Upgrade", replStreamProto)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	// Stub tenants: no durable store to replicate into.
	tc := newTestCluster(t, 2, []string{"alpha"})
	base := tc.https[0].URL
	for _, c := range []struct {
		name    string
		path    string
		upgrade bool
		want    int
	}{
		{"unknown federation", replStreamPath + "?federation=nope", true, http.StatusNotFound},
		{"no upgrade header", replStreamPath + "?federation=alpha", false, http.StatusUpgradeRequired},
		{"no durable store", replStreamPath + "?federation=alpha", true, http.StatusBadRequest},
		{"the per-batch endpoint", "/v1/admin/replicate?federation=alpha&query=Q12&from=0", false, http.StatusNotFound},
	} {
		if got := post(base+c.path, c.upgrade); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}
	if testing.Short() {
		return
	}

	servers, https, _, owner := newReplicatedPair(t)
	standby := 1 - owner
	// Bytes past the request would be lost with net/http's reader: refused.
	conn := dialUpgrade(t, https[standby].URL, "paper", "\x00\x00\x00\x00")
	if status := readStatusLine(t, conn); !strings.Contains(status, " 400 ") {
		t.Fatalf("handshake with trailing bytes answered %q, want 400", status)
	}
	// A clean handshake upgrades; a batch for a query the federation does
	// not serve is refused in the ack and the stream ends.
	idle := acceptedStreams(servers[standby])
	conn = dialUpgrade(t, https[standby].URL, "paper", "")
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != replStreamProto {
		t.Fatalf("handshake: %v %+v", err, resp)
	}
	batch := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 'Q', '1', '3'}
	batch[0] = byte(len(batch) - 4)
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, replAckHeader)
	if _, err := io.ReadFull(br, ack); err != nil {
		t.Fatal(err)
	}
	if status := int(ack[0]) | int(ack[1])<<8; status != http.StatusBadRequest {
		t.Fatalf("batch for an unserved query acked %d, want 400", status)
	}
	if rest, err := io.ReadAll(br); err != nil || !strings.Contains(string(rest), tpch.QueryQ13.String()) {
		t.Fatalf("after a refused batch: %q, %v; want the error text, then EOF", rest, err)
	}
	waitFor(t, 15*time.Second, func() bool { return acceptedStreams(servers[standby]) == idle })
	for _, srv := range servers {
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
