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
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/framelog"
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

// replicaSeq reads how far store's replica of Q12 reaches, as a peer
// would: the ack of an empty batch.
func replicaSeq(t testing.TB, store *histstore.Store) int {
	t.Helper()
	next, err := store.AppendReplicaFrames("Q12", 0, nil, false)
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
	if got, want := replicaSeq(t, servers[standby].tenants["paper"].store), chaosHistLen(t, https[owner].URL); got != want {
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
	waitFor(t, 15*time.Second, func() bool { return rep.Streaming("Q12") }, nil)
	for i := 0; i < 2; i++ {
		chaosSubmit(t, https[owner].URL)
	}
	if got, want := replicaSeq(t, reborn.tenants["paper"].store), chaosHistLen(t, https[owner].URL); got != want {
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
	if n := https[standby].acceptedStreams(); n != 1 {
		t.Fatalf("standby serves %d streams after acked writes, want 1", n)
	}
	if n := streamGoroutines(); n < 1 {
		t.Fatalf("%d goroutines in the batch loop while a stream is open", n)
	}

	if err := servers[standby].Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := https[standby].acceptedStreams(); n != 0 {
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
	servers, https, members, owner, _ := newReplicatedNodes(t, chaosPaperSpec(), 3, nil)
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
	waitFor(t, 15*time.Second, func() bool { return https[oldIdx].acceptedStreams() == 1 }, nil)

	ring, err := cluster.NewRing([]cluster.Member{members[owner], members[movedIdx]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved, _ := cluster.NewTable(ring).WithOverride("paper", members[owner].ID)
	cs.table.Store(moved.WithEpochAtLeast(cs.table.Load().Epoch() + 1))

	chaosSubmit(t, https[owner].URL) // redials, is refused (the new standby holds nothing), degrades
	waitFor(t, 15*time.Second, func() bool { return https[oldIdx].acceptedStreams() == 0 }, nil)
	waitFor(t, 15*time.Second, func() bool { return cs.repl["paper"].Streaming("Q12") }, nil)
	for i := 0; i < 2; i++ {
		chaosSubmit(t, https[owner].URL)
	}
	if peer, open, _ := streamState(servers[owner], "paper"); !open || peer != members[movedIdx].Addr {
		t.Fatalf("stream open=%v to %q, want open to the new standby %q", open, peer, members[movedIdx].Addr)
	}
	if got, want := replicaSeq(t, servers[movedIdx].tenants["paper"].store), chaosHistLen(t, https[owner].URL); got != want {
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
	tn := newTenant("paper", &stubSched{}, []tpch.QueryID{tpch.QueryQ12}, true)
	tn.store = store
	return tn
}

// pipePeer is who a pipeStream is connected to.
var pipePeer = cluster.Member{ID: "pipe", Addr: "pipe"}

// pipeStream connects a sending end to tn's batch loop over a pipe, no
// handshake; done closes when the loop returns. The loop's end of the pipe
// closes with it, as the handler closes an accepted stream's; acks, when
// not negative, is how many it may write before it fails like a killed
// process's.
func pipeStream(tn *tenant, acks int) (st *replStream, done chan struct{}) {
	client, server := net.Pipe()
	done = make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		tn.serveReplicaStream(&ackLimit{Conn: server, n: acks})
	}()
	cs := &clusterState{cfg: ClusterConfig{PeerTimeout: 5 * time.Second}}
	return &replStream{cs: cs, fed: tn.name, conn: client, peer: pipePeer.Addr}, done
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
	st, done := pipeStream(tn, -1)
	for _, b := range []struct{ from, count, want int }{
		{0, 1, 1},    // one frame, one write
		{1, 20, 21},  // long
		{10, 16, 26}, // long, the first 11 already held
		{3, 2, 26},   // all of it already held
	} {
		if err := st.exchange(replAppend, "Q12", uint64(b.from), frames[b.from*fs:(b.from+b.count)*fs], b.count); err != nil {
			t.Fatalf("batch %+v: %v", b, err)
		}
		if got := replicaSeq(t, tn.store); got != b.want {
			t.Fatalf("batch %+v: replica reaches %d", b, got)
		}
	}
	if c := cap(st.buf); c > 2*replSmallBatch {
		t.Fatalf("owner keeps a %d-byte buffer after long batches", c)
	}
	err := st.exchange(replAppend, "Q12", 30, frames[30*fs:32*fs], 2)
	if err == nil || !strings.Contains(err.Error(), "409") || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("batch past the replica's tail = %v, want a 409 naming the gap", err)
	}
	<-done // a refused batch ends the standby's loop
	if err := st.exchange(replAppend, "Q12", 26, frames[26*fs:27*fs], 1); err == nil {
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
	post := func(url, upgrade string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if upgrade != "" {
			req.Header.Set("Connection", "Upgrade")
			req.Header.Set("Upgrade", upgrade)
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
		upgrade string
		want    int
	}{
		{"unknown federation", replStreamPath + "?federation=nope", replStreamProto, http.StatusNotFound},
		{"no upgrade header", replStreamPath + "?federation=alpha", "", http.StatusUpgradeRequired},
		// A build from before the kind byte: refused, so a mixed pair runs
		// degraded instead of misreading each other's batches.
		{"the previous protocol", replStreamPath + "?federation=alpha", "midas-repl/1", http.StatusUpgradeRequired},
		{"no durable store", replStreamPath + "?federation=alpha", replStreamProto, http.StatusBadRequest},
		{"the per-batch endpoint", "/v1/admin/replicate?federation=alpha&query=Q12&from=0", "", http.StatusNotFound},
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
	idle := https[standby].acceptedStreams()
	conn = dialUpgrade(t, https[standby].URL, "paper", "")
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != replStreamProto {
		t.Fatalf("handshake: %v %+v", err, resp)
	}
	if _, err := conn.Write(encodeBatch("Q13", 0, nil)); err != nil {
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
	waitFor(t, 15*time.Second, func() bool { return https[standby].acceptedStreams() == idle }, nil)
	for _, srv := range servers {
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// shardFiles reads every file of a shard directory but the header.
func shardFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "snapshot.json" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}

// TestStreamKindsAndTenantStates: the kind of a batch says what the
// receiver must be for the federation — what the import endpoint's mode
// parameter used to — and what happens to the replica. A batch of frames
// 2..5 meets a replica holding 0..2: an append extends it, a sync or a
// handoff replaces it, a refusal (409: wrong state, 400: no such kind)
// leaves it alone and ends the stream.
func TestStreamKindsAndTenantStates(t *testing.T) {
	frames, fs := walFrames(t, 6)
	extended := map[string][]byte{"wal.log": frames}
	rebased := map[string][]byte{"wal-00000000000000000002.log": frames[2*fs:]}
	untouched := map[string][]byte{"wal.log": frames[:3*fs]}
	for _, c := range []struct {
		kind  byte
		state int32
		want  int
		files map[string][]byte
	}{
		{replAppend, tenantRemote, http.StatusOK, extended},
		{replAppend, tenantReceiving, http.StatusOK, extended}, // a long handoff's continuation
		{replAppend, tenantSending, http.StatusOK, extended},
		{replAppend, tenantActive, http.StatusConflict, untouched},
		{replSync, tenantRemote, http.StatusOK, rebased},
		{replSync, tenantReceiving, http.StatusConflict, untouched},
		{replSync, tenantSending, http.StatusConflict, untouched},
		{replSync, tenantActive, http.StatusConflict, untouched},
		{replHandoff, tenantReceiving, http.StatusOK, rebased},
		{replHandoff, tenantRemote, http.StatusConflict, untouched},
		{replHandoff, tenantSending, http.StatusConflict, untouched},
		{replHandoff, tenantActive, http.StatusConflict, untouched},
		{replHandoff + 1, tenantRemote, http.StatusBadRequest, untouched},
	} {
		name := fmt.Sprintf("kind %d while %s", c.kind, tenantStateName(c.state))
		dir := t.TempDir()
		tn := standbyTenant(t, dir)
		if _, err := tn.store.AppendReplicaFrames("Q12", 0, frames[:3*fs], false); err != nil {
			t.Fatal(err)
		}
		tn.state.Store(c.state)
		st, done := pipeStream(tn, -1)
		err := st.exchange(c.kind, "Q12", 2, frames[2*fs:], 4)
		if c.want == http.StatusOK {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := replicaSeq(t, tn.store); got != 6 {
				t.Fatalf("%s: replica reaches %d, want 6", name, got)
			}
			st.drop()
		} else if err == nil || !strings.Contains(err.Error(), fmt.Sprint(" ", c.want, ":")) {
			t.Fatalf("%s: %v, want a refusal with %d", name, err, c.want)
		}
		<-done
		if err := tn.store.Close(); err != nil {
			t.Fatal(err)
		}
		if got := shardFiles(t, filepath.Join(dir, "Q12")); !reflect.DeepEqual(got, c.files) {
			t.Fatalf("%s: replica directory holds %d files, not what the batch should have left", name, len(got))
		}
	}
}

// ackLimit lets a batch loop write n acks (any number when negative),
// then fails its connection the way a killed process does.
type ackLimit struct {
	net.Conn
	n int
}

func (c *ackLimit) Write(p []byte) (int, error) {
	if c.n == 0 {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	c.n--
	return c.Conn.Write(p)
}

// TestShipShardLongerThanOneBatch: a shard whose frames exceed what one
// batch may carry (only a log from before retention can be that long)
// crosses as a rebase and append batches cut on frame boundaries, and the
// receiver opens to the sender's history. A receiver killed after the
// rebase and before the last continuation is left holding a contiguous
// run, which the next round replaces.
func TestShipShardLongerThanOneBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and ships 17 MiB, twice")
	}
	// Wide observations, so few of them make a long shard.
	const dim, n = 16 << 10, 130
	metricNames := []string{"time", "money"}
	src, err := histstore.Open(t.TempDir(), histstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	h, err := src.OpenHistory("Q12", dim, metricNames)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, dim)
	for i := 0; i < n; i++ {
		x[0] = float64(i)
		if err := h.Append(core.Observation{X: x, Costs: []float64{2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	_, frames, err := src.ExportShard("Q12", nil)
	if err != nil {
		t.Fatal(err)
	}
	perBatch, _ := framelog.Prefix(frames, cluster.MaxBufferedBytes)
	batches := (len(frames) + perBatch - 1) / perBatch
	if batches < 3 {
		t.Fatalf("%d bytes of frames make %d batches, want ≥ 3", len(frames), batches)
	}

	// The standby dies having acked all but the last batch.
	dir := t.TempDir()
	tn := standbyTenant(t, dir)
	st, done := pipeStream(tn, batches-1)
	armed := uint64(0)
	err = st.shipShard(pipePeer, src, "Q12", replSync, func(next uint64) { armed = next })
	if err == nil || armed != n {
		t.Fatalf("ship into a dying standby = %v (armed at %d), want an error after the cut at %d", err, armed, n)
	}
	<-done
	if err := tn.store.Close(); err != nil {
		t.Fatal(err)
	}
	framesPerBatch := perBatch / (len(frames) / n)
	if got := replicaSeq(t, standbyTenant(t, dir).store); got != n && got != (batches-1)*framesPerBatch {
		// (n when the last batch landed and only its ack was lost.)
		t.Fatalf("restarted standby's replica reaches %d, want the %d frames of %d whole batches", got, (batches-1)*framesPerBatch, batches-1)
	}

	// The next round, into the restarted standby: a rebase again.
	tn = standbyTenant(t, dir)
	st, done = pipeStream(tn, -1)
	if err := st.shipShard(pipePeer, src, "Q12", replSync, nil); err != nil {
		t.Fatal(err)
	}
	st.drop()
	<-done
	got, err := tn.store.OpenHistory("Q12", dim, metricNames)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != n || got.Base() != 0 {
		t.Fatalf("standby opens to [%d, %d), want [0, %d)", got.Base(), got.Len(), n)
	}
	for i := 0; i < n; i++ {
		if o := got.At(i); o.X[0] != float64(i) || len(o.X) != dim {
			t.Fatalf("observation %d on the standby is not the owner's", i)
		}
	}
}
