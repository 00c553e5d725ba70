package server

// Replication stream: how shard bytes move between nodes — an owner's WAL
// frames to its standby, the full sync that arms that standby, and a
// handoff's shards to their target. One long-lived connection per
// federation, opened by the sender with an HTTP/1.1 upgrade and then
// speaking a two-message binary protocol, so an acked write costs one
// small write and one small read on an open socket instead of an HTTP
// request.
//
//	sender → receiver   POST /v1/admin/replicate/stream?federation=F
//	                    Connection: Upgrade, Upgrade: midas-repl/2
//	receiver → sender   101 Switching Protocols (anything else: refused)
//
// then, in lock step, any number of
//
//	batch   size uint32 LE  byte count of everything after this word
//	        kind uint8      replAppend or replSync
//	        from uint64 LE  WAL sequence of the first frame
//	        qlen uint8      length of the query name
//	        query           qlen bytes ("Q12")
//	        frames          size-10-qlen bytes, exactly as histstore wrote
//	                        them (framelog framing, CRC per frame)
//	ack     status uint16 LE  an HTTP status: 200, 400, 409, 413, 500
//	        mlen   uint16 LE  length of the error text (0 with 200)
//	        next   uint64 LE  the replica's next expected sequence
//	        text              mlen bytes
//
// The kind says what the receiver must be and do. An append extends the
// replica (the tenant must not be active here). A sync opens a shard
// transfer — a standby's arming or a handoff's, alike — and needs the
// tenant remote: the replica is rebased — emptied and restarted at from —
// before the frames are appended, and a shard longer than one batch
// continues as appends.
//
// Either end closes the connection after any ack but 200; the owner's
// replicator then degrades the shard and the control loop re-arms it
// with a full sync, exactly as after a failed request.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/framelog"
	"repro/internal/histstore"
	"repro/internal/metrics"
	"repro/internal/tpch"
)

const (
	replStreamProto = "midas-repl/2"
	replStreamPath  = "/v1/admin/replicate/stream"

	// Batch kinds.
	replAppend = 0
	replSync   = 1

	replBatchFixed  = 1 + 8 + 1          // kind, from, qlen: what size counts before the query
	replBatchHeader = 4 + replBatchFixed // with the size word
	replAckHeader   = 2 + 2 + 8          // status, mlen, next
	// replMaxBatch is the largest size word a receiver accepts: no sender
	// puts more than MaxBufferedBytes of frames in a batch.
	replMaxBatch = replBatchFixed + 255 + cluster.MaxBufferedBytes
	// replSmallBatch is how many frame bytes ride in the same write (and
	// the same retained buffer) as the batch header; a serving-shape frame
	// is 76. Longer batches are written, and read, through buffers that
	// are dropped afterwards, so an idle stream holds a few hundred bytes.
	replSmallBatch = 512
	replMaxAckText = 512
)

var errStreamsClosed = errors.New("replication streams are closed (server draining)")

// ---------------------------------------------------------------------
// Sending side
// ---------------------------------------------------------------------

// replStream is the sending end of one federation's stream and, when the
// cluster replicates, that federation's cluster.ShipFunc.
type replStream struct {
	cs  *clusterState
	fed string
	// seconds times every ship, failures and dials included; bound by
	// registerClusterMetrics before the control loop can arm anything.
	seconds *metrics.Histogram

	// mu serializes sends (a batch and its ack) and guards the rest.
	mu     sync.Mutex
	conn   net.Conn // nil before the first send and after any error
	peer   string   // address conn was dialled to
	closed bool     // Drain ran: dial no more
	buf    []byte   // batch header + a small batch
	ack    [replAckHeader]byte
}

// ship is the federation's cluster.ShipFunc: one batch of acked appends
// to whichever member the current table names as the standby.
func (st *replStream) ship(shard string, from uint64, frames []byte, count int) error {
	standby, ok := st.cs.table.Load().Standby(st.fed)
	if !ok {
		return fmt.Errorf("federation %q has no standby", st.fed)
	}
	began := time.Now()
	err := st.send(standby, replAppend, shard, from, frames, count)
	st.seconds.Observe(time.Since(began).Seconds())
	if err != nil {
		return err
	}
	st.cs.framesShipped.Add(float64(count))
	return nil
}

// shipShard moves one open shard of store to peer whole: the cut (arm is
// histstore.ExportShard's) goes out as a sync batch, which rebases the
// receiver's replica, and whatever of it does not fit one batch follows
// as appends cut on frame boundaries — each under its own PeerTimeout.
func (st *replStream) shipShard(peer cluster.Member, store *histstore.Store, shard string, arm func(next uint64)) error {
	from, frames, err := store.ExportShard(shard, arm)
	if err != nil {
		return err
	}
	for kind := byte(replSync); ; {
		n, count := framelog.Prefix(frames, cluster.MaxBufferedBytes)
		if n == 0 && len(frames) > 0 {
			return fmt.Errorf("shard %s/%s does not end on a frame boundary", st.fed, shard)
		}
		if err := st.send(peer, kind, shard, from, frames[:n], count); err != nil {
			return err
		}
		if frames = frames[n:]; len(frames) == 0 {
			return nil
		}
		from, kind = from+uint64(count), replAppend
	}
}

// send delivers one batch to peer, (re)dialling when there is no
// connection or it leads somewhere else — a former standby, the target of
// a handoff that has since failed — and waits for the ack. Any failure
// closes the connection.
func (st *replStream) send(peer cluster.Member, kind byte, shard string, from uint64, frames []byte, count int) error {
	if len(shard) > 255 {
		return fmt.Errorf("shard name %q too long for a replication batch", shard)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return errStreamsClosed
	}
	if st.conn != nil && st.peer != peer.Addr {
		st.drop()
	}
	if st.conn == nil {
		conn, err := st.cs.dialStream(peer.Addr, st.fed)
		if err != nil {
			return fmt.Errorf("replication stream to %s: %w", peer.ID, err)
		}
		st.conn, st.peer = conn, peer.Addr
	}
	if err := st.exchange(kind, shard, from, frames, count); err != nil {
		st.drop()
		return fmt.Errorf("replicating %s/%s to %s: %w", st.fed, shard, peer.ID, err)
	}
	return nil
}

func (st *replStream) exchange(kind byte, shard string, from uint64, frames []byte, count int) error {
	if err := st.conn.SetDeadline(time.Now().Add(st.cs.cfg.PeerTimeout)); err != nil {
		return err
	}
	buf := binary.LittleEndian.AppendUint32(st.buf[:0], uint32(replBatchFixed+len(shard)+len(frames)))
	buf = binary.LittleEndian.AppendUint64(append(buf, kind), from)
	buf = append(append(buf, byte(len(shard))), shard...)
	if len(frames) <= replSmallBatch {
		buf, frames = append(buf, frames...), nil
	}
	st.buf = buf
	if _, err := st.conn.Write(buf); err != nil {
		return err
	}
	if len(frames) > 0 {
		if _, err := st.conn.Write(frames); err != nil {
			return err
		}
	}
	if _, err := io.ReadFull(st.conn, st.ack[:]); err != nil {
		return fmt.Errorf("reading ack: %w", err)
	}
	status := int(binary.LittleEndian.Uint16(st.ack[0:]))
	mlen := int(binary.LittleEndian.Uint16(st.ack[2:]))
	next := binary.LittleEndian.Uint64(st.ack[4:])
	if status != http.StatusOK {
		text := make([]byte, min(mlen, replMaxAckText))
		n, _ := io.ReadFull(st.conn, text) // a cut-off text still beats none
		return fmt.Errorf("peer answered %d: %s", status, text[:n])
	}
	if want := from + uint64(count); next < want {
		return fmt.Errorf("peer acked up to sequence %d, batch ends at %d", next, want)
	}
	return nil
}

// hangUp ends the connection after the last batch meant for its peer (a
// handoff's target, about to serve the federation itself).
func (st *replStream) hangUp() {
	st.mu.Lock()
	st.drop()
	st.mu.Unlock()
}

// drop closes the connection; the next send dials afresh. Caller holds mu.
func (st *replStream) drop() {
	if st.conn != nil {
		st.conn.Close()
		st.conn = nil
	}
}

// closeStreams ends outbound replication on this node for good: the
// streams it dialled are closed and dial no more. A ship in flight
// finishes or fails first (within PeerTimeout). The streams it accepted
// belong to the server's lifetime and end with it.
func (cs *clusterState) closeStreams() {
	for _, st := range cs.streams {
		st.mu.Lock()
		st.closed = true
		st.drop()
		st.mu.Unlock()
	}
}

// dialStream opens a connection to the peer at addr and upgrades it to
// fed's replication stream. The whole handshake runs under PeerTimeout
// and ends with the server's lifetime.
func (cs *clusterState) dialStream(addr, fed string) (net.Conn, error) {
	req, err := http.NewRequest(http.MethodPost, addr+replStreamPath+"?federation="+url.QueryEscape(fed), nil)
	if err != nil {
		return nil, err
	}
	if req.URL.Scheme != "http" {
		return nil, fmt.Errorf("peer address %q: replication streams speak plain HTTP/1.1 only", addr)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", replStreamProto)
	host := req.URL.Host
	if req.URL.Port() == "" {
		host = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	deadline := time.Now().Add(cs.cfg.PeerTimeout)
	conn, err := (&net.Dialer{Deadline: deadline}).DialContext(cs.srv.lifeCtx, "tcp", host)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (net.Conn, error) {
		conn.Close()
		return nil, err
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return fail(err)
	}
	if err := req.Write(conn); err != nil {
		return fail(err)
	}
	// A reader this small cannot hide much of the stream: whatever it
	// holds past the response is checked below, then it is garbage.
	br := bufio.NewReaderSize(conn, 64)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		return fail(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), replStreamProto) {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return fail(fmt.Errorf("%s: upgrade refused: %s: %s", req.URL.Path, resp.Status, bytes.TrimSpace(msg)))
	}
	if br.Buffered() != 0 {
		return fail(errors.New("standby sent data before the first batch"))
	}
	return conn, nil
}

// ---------------------------------------------------------------------
// Receiving side
// ---------------------------------------------------------------------

// handleReplicateStream (POST /v1/admin/replicate/stream?federation=)
// turns the connection into the federation's replication stream: it
// checks what can be checked once, takes the connection over and
// returns. A goroutine the server owns answers 101 and serves the batches
// (serveReplicaStream) until the sender hangs up or Drain closes it.
func (s *Server) handleReplicateStream(w http.ResponseWriter, r *http.Request) {
	fed := r.URL.Query().Get("federation")
	t, ok := s.tenants[fed]
	if !ok {
		writeError(w, http.StatusNotFound, "server: unknown federation %q", fed)
		return
	}
	if !strings.EqualFold(r.Header.Get("Upgrade"), replStreamProto) {
		w.Header().Set("Upgrade", replStreamProto)
		writeError(w, http.StatusUpgradeRequired, "this endpoint only upgrades to %s", replStreamProto)
		return
	}
	if t.store == nil {
		writeError(w, http.StatusBadRequest, "federation %q has no durable store", t.name)
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "connection cannot be upgraded: %v", err)
		return
	}
	// From here the connection is ours: net/http neither answers on it
	// nor closes it — not in Close or Shutdown either — and whatever
	// deadlines the http.Server was configured with may still stand.
	if brw.Reader.Buffered() != 0 {
		// Batches sent before the 101 sit in a buffer this handler is
		// about to drop.
		_, _ = io.WriteString(conn, "HTTP/1.1 400 Bad Request\r\nConnection: close\r\nContent-Length: 0\r\n\r\n")
		conn.Close()
		return
	}
	// Drain ending the lifetime closes the connection — net/http's Close
	// and Shutdown do not know hijacked ones — and waits for the goroutine.
	served := s.spawn(func() {
		stop := context.AfterFunc(s.lifeCtx, func() { conn.Close() })
		defer stop()
		defer conn.Close()
		_, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+replStreamProto+"\r\n\r\n")
		if err == nil && conn.SetDeadline(time.Time{}) == nil {
			t.serveReplicaStream(conn)
		}
	})
	if !served {
		conn.Close() // Drain got in between the flag and here
	}
}

// serveReplicaStream reads batches off an upgraded connection and
// answers each with an ack until the peer hangs up, the framing is lost
// or a batch is refused. conn is closed by the caller.
func (t *tenant) serveReplicaStream(conn net.Conn) {
	// Small on purpose: a serving-shape batch fits, so header and frames
	// arrive in one read, and a long one is read straight into its own
	// buffer.
	br := bufio.NewReaderSize(conn, replSmallBatch)
	var (
		hdr  [replBatchHeader]byte
		ack  [replAckHeader]byte
		body []byte
	)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		size := int(binary.LittleEndian.Uint32(hdr[0:]))
		kind := hdr[4]
		from := binary.LittleEndian.Uint64(hdr[5:])
		qlen := int(hdr[13])
		var (
			status int
			next   uint64
			err    error
		)
		switch {
		case size > replMaxBatch:
			// Refused on the size word alone, before a byte is allocated.
			status, err = http.StatusRequestEntityTooLarge, fmt.Errorf("batch of %d bytes exceeds %d", size, replMaxBatch)
		case size < replBatchFixed+qlen:
			status, err = http.StatusBadRequest, fmt.Errorf("batch size %d too short for a %d-byte query name", size, qlen)
		default:
			n := size - replBatchFixed
			if cap(body) < n {
				body = make([]byte, n)
			}
			body = body[:n]
			if _, err := io.ReadFull(br, body); err != nil {
				return
			}
			status, next, err = t.appendReplica(kind, body[:qlen], from, body[qlen:])
			if cap(body) > replSmallBatch {
				body = nil
			}
		}
		var text string
		if err != nil {
			text = err.Error()
			text = text[:min(len(text), replMaxAckText)]
		}
		binary.LittleEndian.PutUint16(ack[0:], uint16(status))
		binary.LittleEndian.PutUint16(ack[2:], uint16(len(text)))
		binary.LittleEndian.PutUint64(ack[4:], next)
		if _, werr := conn.Write(append(ack[:], text...)); werr != nil || err != nil {
			return
		}
	}
}

// appendReplica applies one batch to this node's replica of the named
// shard. The status is what the ack carries: 409 tells the sender its
// batch does not fit what this node is or holds (the federation is served
// or being activated here, frames are missing) and, for an owner,
// that a full sync must re-arm the stream.
func (t *tenant) appendReplica(kind byte, query []byte, from uint64, frames []byte) (int, uint64, error) {
	q, ok := t.servedQuery(query)
	if !ok {
		return http.StatusBadRequest, 0, fmt.Errorf("federation %q does not serve %q", t.name, query)
	}
	// What the batch requires this node to be for the federation, and
	// whether it opens a transfer.
	var fits, rebase bool
	switch st := t.state.Load(); kind {
	case replAppend:
		fits = st != cluster.Active
	case replSync:
		fits, rebase = st == cluster.Remote, true
	default:
		return http.StatusBadRequest, 0, fmt.Errorf("unknown batch kind %d", kind)
	}
	if !fits {
		return http.StatusConflict, 0, fmt.Errorf("federation %q is %s on this node", t.name, tenantStateName(t.state.Load()))
	}
	next, err := t.store.AppendReplicaFrames(q.String(), from, frames, rebase)
	if errors.Is(err, histstore.ErrReplicaGap) {
		return http.StatusConflict, next, err
	}
	if err != nil {
		return http.StatusInternalServerError, next, err
	}
	return http.StatusOK, next, nil
}

// servedQuery resolves a query name off the wire without allocating.
func (t *tenant) servedQuery(name []byte) (tpch.QueryID, bool) {
	for _, q := range t.queries {
		if q.String() == string(name) {
			return q, true
		}
	}
	return 0, false
}
