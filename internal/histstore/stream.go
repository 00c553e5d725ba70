package histstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/framelog"
)

// ExportShard cuts the named open shard for a transfer to another node:
// the raw framing of every segment present, oldest first — the bytes a
// shard open replays, and what AppendReplicaFrames takes — and the
// sequence of the first frame in them. The shard lock is held for the
// duration, so the cut is a consistent point in time: no append lands
// between the last frame returned and the cut.
//
// arm, when non-nil, is invoked under that same lock with the sequence
// number of the next append — the exact point a replication mirror must
// resume from for its stream to be contiguous with the cut.
func (s *Store) ExportShard(name string, arm func(next uint64)) (from uint64, frames []byte, err error) {
	s.mu.Lock()
	sh := s.shards[name]
	s.mu.Unlock()
	if sh == nil {
		return 0, nil, fmt.Errorf("histstore: export of unopened shard %q", name)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.broken != nil {
		return 0, nil, fmt.Errorf("histstore: shard unusable: %w", sh.broken)
	}
	for _, start := range sh.wal.starts {
		seg, err := os.ReadFile(filepath.Join(sh.wal.dir, segmentName(start)))
		if err != nil {
			return 0, nil, fmt.Errorf("histstore: export %q: %w", name, err)
		}
		frames = append(frames, seg...)
	}
	if arm != nil {
		arm(sh.nextSeq)
	}
	return sh.wal.starts[0], frames, nil
}

// ErrReplicaGap reports that a replica frame batch starts beyond the
// replica's current tail — frames are missing, and appending the batch
// would record a hole. The stream must be re-established with a full
// sync (a rebasing batch).
var ErrReplicaGap = errors.New("histstore: replica frame batch leaves a sequence gap")

// replica is the standby-side state of one mirrored shard: the append
// end of its WAL — rolled and trimmed by the rule the owner's is — plus
// the next expected sequence.
type replica struct {
	wal  segLog
	next uint64
}

// openReplica loads (or creates) the replica state for name. Caller
// holds s.replMu.
func (s *Store) openReplica(name string) (*replica, error) {
	if r, ok := s.replicas[name]; ok {
		return r, nil
	}
	dir := s.shardDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	starts, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(starts) == 0 {
		starts = []uint64{0}
	}
	// Only the newest segment is read: a log rolls to a segment exactly
	// when its tail reaches that segment's start, and a promotion replays
	// (and checks) them all. The tail ends the run of frames continuing
	// from that start, duplicates skipped: a compacting build's wal.log,
	// which starts past frame 0, counts as empty, so the next batch finds
	// a gap and the owner re-arms the replica with a full sync.
	next := starts[len(starts)-1]
	// Same torn-tail policy as a real open: the handle comes back cut to
	// the valid prefix, so the next append starts on a frame boundary.
	f, _, _, err := framelog.OpenAppend(filepath.Join(dir, segmentName(next)), maxFramePayload, func(_ int64, p []byte) error {
		seq, err := frameSeq(p)
		if err == nil && seq == next {
			next++
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	r := &replica{next: next, wal: s.segLog(dir, f, starts)}
	s.replicas[name] = r
	return r, nil
}

// closeReplica drops the cached replica handle for name, if any. Caller
// holds s.replMu.
func (s *Store) closeReplica(name string) {
	if r, ok := s.replicas[name]; ok {
		r.wal.f.Close()
		delete(s.replicas, name)
	}
}

// rebaseReplica restarts the named shard's replica at from, holding
// nothing: whatever an earlier ownership left in the directory — its
// segments, then the snapshot.json beside them (an older, compacting
// build's may hold observations) — is removed, oldest segment first, so
// a crash part-way leaves a contiguous run that still opens. Caller
// holds s.replMu.
func (s *Store) rebaseReplica(name string, from uint64) (*replica, error) {
	s.closeReplica(name)
	dir := s.shardDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stale, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, start := range stale {
		if err := s.removeSegment(filepath.Join(dir, segmentName(start))); err != nil {
			return nil, err
		}
	}
	if err := os.Remove(filepath.Join(dir, snapshotName)); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	f, err := s.createSegment(filepath.Join(dir, segmentName(from)))
	if err != nil {
		return nil, err
	}
	r := &replica{next: from, wal: s.segLog(dir, f, []uint64{from})}
	if r.wal.durable {
		// As after a roll: a frame acknowledged as fsynced must not sit in
		// a file whose name a crash forgets.
		if err := framelog.SyncDir(dir); err != nil {
			f.Close()
			return nil, err
		}
	}
	s.replicas[name] = r
	return r, nil
}

// AppendReplicaFrames appends a batch of contiguous raw WAL frames —
// exactly as a Mirror received them, or as ExportShard cut them — to the
// named shard's replica WAL. from is the sequence of the batch's first
// frame. Overlap with frames already on the replica is skipped (shipping
// retries may resend); a batch starting beyond the replica tail fails
// with ErrReplicaGap. Returns the replica's next expected sequence.
//
// rebase marks the first batch of a full transfer (the head of a cut):
// the replica is emptied and restarted at from before the batch is
// appended, so nothing an earlier ownership of the shard left behind
// survives beside it, and the frames are laid out — rolled, trimmed — as
// every later batch's are. A batch that fails its checks is refused with
// the old replica untouched.
//
// The shard must not be open as a live history on this store.
func (s *Store) AppendReplicaFrames(name string, from uint64, frames []byte, rebase bool) (uint64, error) {
	// replMu is acquired while s.mu is still held: a takeover's
	// OpenHistory (which runs under s.mu and closes the replica handle
	// under replMu) cannot interleave between the open-check and the
	// append, so a replica handle can never be re-opened on a wal.log a
	// now-live shard is appending to.
	s.mu.Lock()
	if _, open := s.shards[name]; open {
		s.mu.Unlock()
		return 0, fmt.Errorf("histstore: replica append to open shard %q", name)
	}
	s.replMu.Lock()
	s.mu.Unlock()
	defer s.replMu.Unlock()
	// next is the sequence the replica expects: its tail or, rebased,
	// where it is about to start.
	var r *replica
	next := from
	if !rebase {
		var err error
		if r, err = s.openReplica(name); err != nil {
			return 0, fmt.Errorf("histstore: replica %q: %w", name, err)
		}
		if next = r.next; from > next {
			return next, fmt.Errorf("%w: shard %q has %d, batch starts at %d", ErrReplicaGap, name, next, from)
		}
	}
	// Walk the batch's framing to find where the overlap ends and where
	// among the new frames a segment begins, checking that the sequence
	// numbers are in fact contiguous from `from`.
	seq := from
	offset := int64(len(frames)) // of the first new frame (sequence next)
	type cut struct {
		off int64
		seq uint64
	}
	var rolls []cut
	retain := uint64(s.opts.Retain)
	_, err := framelog.ScanBytes(frames, maxFramePayload, framelog.Strict, func(off int64, p []byte) error {
		got, err := frameSeq(p)
		if err != nil {
			return err
		}
		if got != seq {
			return fmt.Errorf("frame %d out of order (want %d)", got, seq)
		}
		if got == next {
			offset = off
		}
		if got >= next && retain > 0 && got%retain == 0 {
			rolls = append(rolls, cut{off, got})
		}
		seq++
		return nil
	})
	if err == nil && rebase {
		r, err = s.rebaseReplica(name, from)
	}
	if err != nil {
		return next, fmt.Errorf("histstore: replica %q: %w", name, err)
	}
	if seq <= next {
		return next, nil // entire batch already applied
	}
	// A failed write or roll may leave part of the batch in the file
	// while r.next stays behind; the duplicates a retry then appends are
	// skipped by sequence when the shard is opened.
	write := func(p []byte) error {
		if len(p) == 0 {
			return nil
		}
		_, err := r.wal.f.Write(p)
		return err
	}
	for _, c := range rolls {
		if err = write(frames[offset:c.off]); err == nil && r.wal.rollDue(c.seq) {
			err = r.wal.roll(c.seq)
		}
		if err != nil {
			return r.next, fmt.Errorf("histstore: replica %q: %w", name, err)
		}
		offset = c.off
	}
	if err := write(frames[offset:]); err != nil {
		return r.next, fmt.Errorf("histstore: replica %q: %w", name, err)
	}
	if r.wal.durable {
		// The source counts a shipped frame as replicated; give the
		// replica the same crash durability class as the primary WAL.
		if err := r.wal.f.Sync(); err != nil {
			return r.next, fmt.Errorf("histstore: replica %q: %w", name, err)
		}
	}
	r.next = seq
	return r.next, nil
}
