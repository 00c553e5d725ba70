package cluster

import (
	"fmt"
	"sync"
)

// ShipFunc delivers a batch of contiguous raw WAL frames for one shard
// to the standby. from is the sequence number of the first frame in the
// batch; frames is the concatenated on-disk framing (len+crc+payload,
// exactly as histstore wrote them); count is how many frames the batch
// holds. A non-nil error degrades the shard's replication. frames is
// the Replicator's buffer, which it fills again once ship returns: ship
// must not retain it, nor any slice of it, after the call.
type ShipFunc func(shard string, from uint64, frames []byte, count int) error

// replState is a shard's replication mode.
type replState int32

const (
	// replDisarmed: no standby stream; appends are dropped, waits
	// return immediately. The state of every shard before its first
	// full sync and after a handoff away.
	replDisarmed replState = iota
	// replHeld: a full sync is in flight. Frames are buffered (the
	// stream stays contiguous with the sync point) but not shipped
	// until Release confirms the standby holds the synced state — or
	// Disarm abandons the sync. Acks do NOT wait: until the sync
	// completes the shard is still in its degraded-to-local-durability
	// window, and blocking writes on a standby that may be hung is
	// exactly the stall the held state must not cause.
	replHeld
	// replStreaming: the standby holds a contiguous prefix; new frames
	// are buffered and shipped in batches, and acks wait for shipment.
	replStreaming
	// replDegraded: a ship failed. The stream is abandoned — acks fall
	// back to local durability — until the next full sync re-arms it.
	replDegraded
)

// replShard is the per-shard stream state.
type replShard struct {
	mu    sync.Mutex
	cond  *sync.Cond
	state replState

	buf      []byte // concatenated frames not yet handed to ship
	spare    []byte // the last shipped batch's storage, emptied, for buf
	bufFrom  uint64 // seq of the first frame in buf
	bufCount int
	synced   uint64 // every seq < synced is on the standby
	shipping bool   // a waiter is inside ship with the previous buffer
}

// Replicator ships one store's WAL appends to a standby, shard by
// shard, and owns no goroutine. It implements histstore.Mirror:
// AppendFrame is called under the shard lock (so the frame order here
// is exactly the WAL order) and only buffers; WaitFrame is called
// outside the lock before a write is acknowledged and returns once the
// frame is on the standby — the waiter that finds nobody shipping takes
// the buffer and ships it itself, the others wait for that ship — or
// immediately once the shard is degraded, trading replica currency for
// availability rather than failing writes when the standby is down.
type Replicator struct {
	ship ShipFunc
	// OnDegrade, if set, is invoked (outside locks) when a shard's
	// stream breaks; the server uses it for logging and metrics.
	OnDegrade func(shard string, err error)

	mu     sync.Mutex
	shards map[string]*replShard
}

// NewReplicator builds a replicator delivering through ship. All shards
// start disarmed; Hold and Release each one around a full sync.
func NewReplicator(ship ShipFunc) *Replicator {
	return &Replicator{ship: ship, shards: make(map[string]*replShard)}
}

func (r *Replicator) shard(name string) *replShard {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.shards[name]
	if !ok {
		s = &replShard{}
		s.cond = sync.NewCond(&s.mu)
		r.shards[name] = s
	}
	return s
}

// Hold is the first half of arming shard: the stream starts buffering
// at next — call it at the exact point the full sync was cut, under the
// same lock that orders WAL appends, so the stream is contiguous with
// the shipped state — but nothing ships until Release confirms the
// standby actually holds that state. Without the hold, frames appended
// during the sync transfer could reach the standby before the cut they
// extend. Acks are not blocked while held — the shard was running on
// local durability before the sync began and keeps doing so until the
// stream is actually live — so a hung standby can slow only its own
// re-arm, never the write path.
func (r *Replicator) Hold(shard string, next uint64) {
	s := r.shard(shard)
	s.mu.Lock()
	s.state = replHeld
	s.buf = nil
	s.bufFrom = next
	s.bufCount = 0
	s.synced = next
	s.mu.Unlock()
}

// Release completes a Hold: the standby holds the synced state, so acks
// wait for shipment from here on, and the frames buffered meanwhile are
// shipped before Release returns — their acks did not wait and nobody
// else might. No-op unless the shard is held (a concurrent Disarm or
// degrade wins).
func (r *Replicator) Release(shard string) {
	s := r.shard(shard)
	s.mu.Lock()
	if s.state == replHeld {
		s.state = replStreaming
		r.waitShipped(shard, s, s.bufFrom+uint64(s.bufCount))
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Disarm stops shard's stream (handoff away, store close). Pending
// waiters are released.
func (r *Replicator) Disarm(shard string) {
	s := r.shard(shard)
	s.mu.Lock()
	s.state = replDisarmed
	s.buf = nil
	s.bufCount = 0
	s.cond.Broadcast()
	s.mu.Unlock()
}

// DisarmAll disarms every shard.
func (r *Replicator) DisarmAll() {
	r.mu.Lock()
	names := make([]string, 0, len(r.shards))
	for name := range r.shards {
		names = append(names, name)
	}
	r.mu.Unlock()
	for _, name := range names {
		r.Disarm(name)
	}
}

// Degraded reports whether shard's stream has broken since it was last
// armed.
func (r *Replicator) Degraded(shard string) bool {
	s := r.shard(shard)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == replDegraded
}

// Streaming reports whether shard is actively replicating.
func (r *Replicator) Streaming(shard string) bool {
	s := r.shard(shard)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == replStreaming
}

// maxSpareBytes bounds the shipped batch a shard keeps to buffer the
// next one in: a serving-shape batch is a few frames of under 100 B, and
// an 8 MiB batch shipped after a stall is not worth retaining.
const maxSpareBytes = 64 << 10

// MaxBufferedBytes bounds the frames buffered for shipment per shard —
// and so the largest batch a ShipFunc is ever handed, which is what lets
// the standby refuse anything longer. A held stream no longer blocks
// acks, so a standby hung mid-sync would otherwise let the buffer grow
// without bound; past this the stream degrades to local durability and
// waits for the next full sync.
const MaxBufferedBytes = 8 << 20

// AppendFrame buffers one raw WAL frame for shipment. Called under the
// shard's WAL lock; must not block or ship inline.
func (r *Replicator) AppendFrame(shard string, seq uint64, frame []byte) {
	s := r.shard(shard)
	s.mu.Lock()
	if s.state != replStreaming && s.state != replHeld {
		s.mu.Unlock()
		return
	}
	if want := s.bufFrom + uint64(s.bufCount); seq != want {
		// A discontinuity means the mirror missed frames (e.g. armed
		// against a stale sync point); the stream is no longer an exact
		// suffix, so it must degrade rather than ship a gap.
		r.degrade(shard, s, errSeqGap{shard: shard, want: want, got: seq})
		return
	}
	if len(s.buf)+len(frame) > MaxBufferedBytes {
		r.degrade(shard, s, fmt.Errorf("cluster: replication buffer for %s exceeded %d bytes (standby stalled)",
			shard, MaxBufferedBytes))
		return
	}
	s.buf = append(s.buf, frame...)
	s.bufCount++
	s.mu.Unlock()
}

// degrade abandons the stream until the next full sync re-arms it.
// Called with s.mu held; releases it, so that OnDegrade runs outside.
func (r *Replicator) degrade(shard string, s *replShard, err error) {
	s.state = replDegraded
	s.buf = nil
	s.bufCount = 0
	s.cond.Broadcast()
	s.mu.Unlock()
	if r.OnDegrade != nil {
		r.OnDegrade(shard, err)
	}
}

// waitShipped returns once every sequence below upto is on the standby
// or the shard has stopped streaming. Called with s.mu held, which it
// drops for the length of a ship. A waiter that is not covered takes
// everything buffered and ships it — one ship in flight per shard, so
// batches go in sequence order — unless somebody already is, and then
// waits for that ship; the frames buffered meanwhile go with the next.
func (r *Replicator) waitShipped(shard string, s *replShard, upto uint64) {
	for s.state == replStreaming && s.synced < upto {
		if s.shipping || s.bufCount == 0 {
			s.cond.Wait()
			continue
		}
		batch, from, count := s.buf, s.bufFrom, s.bufCount
		s.buf, s.bufFrom, s.bufCount = s.spare, from+uint64(count), 0
		s.spare = nil
		s.shipping = true
		s.mu.Unlock()

		err := r.ship(shard, from, batch, count)

		s.mu.Lock()
		s.shipping = false
		if cap(batch) <= maxSpareBytes {
			s.spare = batch[:0]
		}
		if err != nil {
			r.degrade(shard, s, err)
			s.mu.Lock()
			return
		}
		if s.state == replStreaming && s.synced < from+uint64(count) {
			s.synced = from + uint64(count)
		}
		s.cond.Broadcast()
	}
}

// WaitFrame blocks until the frame with sequence seq has been shipped
// to the standby, the shard degrades, or the shard is disarmed. It
// never returns an error: degraded replication falls back to local
// durability by design (the caller's fsync already happened). A held
// shard does not block either — until its full sync completes the
// shard is still in the local-durability window, and a hung standby
// must not stall the write path for the whole sync attempt.
func (r *Replicator) WaitFrame(shard string, seq uint64) error {
	s := r.shard(shard)
	s.mu.Lock()
	r.waitShipped(shard, s, seq+1)
	s.mu.Unlock()
	return nil
}

// errSeqGap reports a mirror discontinuity.
type errSeqGap struct {
	shard     string
	want, got uint64
}

func (e errSeqGap) Error() string {
	return fmt.Sprintf("cluster: replication stream gap on %s: want seq %d, got %d",
		e.shard, e.want, e.got)
}
