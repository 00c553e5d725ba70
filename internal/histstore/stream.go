package histstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/framelog"
)

// Shard transfer wire format — the histstore side of cluster handoff
// and standby replication. A shard export is three framelog frames
// (DESIGN.md "Framed logs") whose payload opens with a kind:
//
//	kind uint32 LE  sectionSnapshot, sectionWAL, then sectionEnd
//	body            the section's bytes (empty for sectionEnd)
//
// The snapshot body is the shard's snapshot.json bytes verbatim (the
// shape header; empty in a stream from a build that wrote none) and the
// WAL body is the raw framing of every segment present, oldest first —
// the same bytes a shard open replays, so the importing side recovers
// with exactly the code path a restart uses. The first frame's sequence
// number is the base the shipped history starts at.
// The format is wire-only: both ends of a stream run the same build.

const (
	sectionSnapshot = 1
	sectionWAL      = 2
	sectionEnd      = 3

	// maxSectionPayload bounds one section (every frame a shard holds);
	// far above any real shard. framelog grows a buffer this large only
	// as its bytes arrive, so the bound is not an allocation request.
	maxSectionPayload = 1 << 30
)

// ExportShard streams the named open shard's durable state — header
// plus WAL — to w in the section format above. The shard lock is held
// for the duration, so the export is a consistent point-in-time cut:
// no append lands between the exported WAL tail and the cut.
//
// arm, when non-nil, is invoked under that same lock with the sequence
// number of the next append — the exact point a replication mirror must
// resume from for its stream to be contiguous with the exported state.
func (s *Store) ExportShard(name string, w io.Writer, arm func(next uint64)) error {
	s.mu.Lock()
	sh := s.shards[name]
	s.mu.Unlock()
	if sh == nil {
		return fmt.Errorf("histstore: export of unopened shard %q", name)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.broken != nil {
		return fmt.Errorf("histstore: shard unusable: %w", sh.broken)
	}
	snap, err := os.ReadFile(filepath.Join(sh.wal.dir, snapshotName))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("histstore: export %q: %w", name, err)
	}
	var wal []byte
	for _, start := range sh.wal.starts {
		seg, err := os.ReadFile(filepath.Join(sh.wal.dir, segmentName(start)))
		if err != nil {
			return fmt.Errorf("histstore: export %q: %w", name, err)
		}
		wal = append(wal, seg...)
	}
	var buf []byte
	for _, sec := range []struct {
		kind uint32
		body []byte
	}{{sectionSnapshot, snap}, {sectionWAL, wal}, {sectionEnd, nil}} {
		var at int
		buf, at = framelog.Begin(buf[:0])
		buf = binary.LittleEndian.AppendUint32(buf, sec.kind)
		buf = framelog.Finish(append(buf, sec.body...), at)
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("histstore: export %q: %w", name, err)
		}
	}
	if arm != nil {
		arm(sh.nextSeq)
	}
	return nil
}

// ImportShard installs an exported shard stream as the named shard's
// durable state, replacing whatever the shard directory held (stale
// state from an earlier ownership of the same tenant must not survive
// a re-import). The shard must not be open; open it afterwards with
// OpenHistory, which replays the imported state through the ordinary
// recovery path.
func (s *Store) ImportShard(name string, r io.Reader) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, open := s.shards[name]; open {
		return fmt.Errorf("histstore: import into open shard %q", name)
	}
	s.closeReplica(name)
	var snap, wal []byte
	var haveSnap, haveWAL, ended bool
	_, err := framelog.Scan(r, maxSectionPayload, framelog.Strict, func(_ int64, p []byte) error {
		if len(p) < 4 || ended {
			return fmt.Errorf("%w: section without a kind, or after the end marker", framelog.ErrCorrupt)
		}
		// The payload is only valid during the callback: keep a copy.
		switch kind := binary.LittleEndian.Uint32(p); kind {
		case sectionSnapshot:
			snap, haveSnap = append([]byte(nil), p[4:]...), true
		case sectionWAL:
			wal, haveWAL = append([]byte(nil), p[4:]...), true
		case sectionEnd:
			ended = true
		default:
			return fmt.Errorf("unknown section kind %d", kind)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("histstore: import %q: %w", name, err)
	}
	if !haveSnap || !haveWAL || !ended {
		return fmt.Errorf("histstore: import %q: truncated stream", name)
	}
	return s.installShard(name, snap, wal)
}

// installShard validates and writes an imported shard's files: the
// header, and the WAL as the one segment its first frame names. Caller
// holds s.mu.
func (s *Store) installShard(name string, snap, wal []byte) error {
	// Validate before touching disk: the snapshot must parse and the
	// WAL must be wholly intact — an export is a clean cut, so a torn
	// tail here is transfer corruption, not a crash artifact.
	var compacted uint64
	if len(snap) > 0 {
		var err error
		if compacted, err = loadSnapshotBytes(snap); err != nil {
			return fmt.Errorf("histstore: import %q: snapshot: %w", name, err)
		}
	}
	var base uint64
	_, err := framelog.Scan(bytes.NewReader(wal), maxFramePayload, framelog.Strict, func(off int64, p []byte) error {
		seq, err := frameSeq(p)
		if off == 0 {
			base = seq
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("histstore: import %q: wal: %w", name, err)
	}
	if compacted > 0 {
		// A compacting build's stream: the snapshot holds what precedes
		// the frames, and the open folds the two into one wal.log.
		base = 0
	}
	dir := s.shardDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("histstore: import %q: %w", name, err)
	}
	// Whatever segments an earlier ownership left go first, oldest first
	// (a crash part-way leaves a run that still opens); the one the import
	// is about to replace goes by the rename.
	stale, err := listSegments(dir)
	if err != nil {
		return fmt.Errorf("histstore: import %q: %w", name, err)
	}
	for _, start := range stale {
		if start == base {
			continue
		}
		if err := os.Remove(filepath.Join(dir, segmentName(start))); err != nil {
			return fmt.Errorf("histstore: import %q: %w", name, err)
		}
	}
	write := func(file string, data []byte) error {
		return framelog.WriteFileAtomic(filepath.Join(dir, file), func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
	}
	if len(snap) > 0 {
		err = write(snapshotName, snap)
	} else if err = os.Remove(filepath.Join(dir, snapshotName)); os.IsNotExist(err) {
		err = nil
	}
	if err == nil {
		err = write(segmentName(base), wal)
	}
	if err != nil {
		return fmt.Errorf("histstore: import %q: %w", name, err)
	}
	return nil
}

// ErrReplicaGap reports that a replica frame batch starts beyond the
// replica's current tail — frames are missing, and appending the batch
// would record a hole. The stream must be re-established with a full
// sync (ImportShard).
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
	// (and checks) them all.
	newest := starts[len(starts)-1]
	next := newest
	if raw, err := os.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		n, err := loadSnapshotBytes(raw)
		if err != nil {
			return nil, fmt.Errorf("replica snapshot: %w", err)
		}
		next = max(next, n)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	// Same torn-tail policy as a real open: the handle comes back cut to
	// the valid prefix, so the next append starts on a frame boundary.
	f, _, _, err := framelog.OpenAppend(filepath.Join(dir, segmentName(newest)), maxFramePayload, func(_ int64, p []byte) error {
		seq, err := frameSeq(p)
		// Replica WALs are written in order, so the last intact frame
		// defines the tail (duplicates below next were overlap-skipped
		// at append time and cannot appear).
		if err == nil && seq >= next {
			next = seq + 1
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	r := &replica{next: next, wal: s.segLog(dir, f, starts)}
	if s.replicas == nil {
		s.replicas = make(map[string]*replica)
	}
	s.replicas[name] = r
	return r, nil
}

// closeReplica drops the cached replica handle for name, if any.
// Callers hold s.mu (lock order: s.mu, then s.replMu).
func (s *Store) closeReplica(name string) {
	s.replMu.Lock()
	if r, ok := s.replicas[name]; ok {
		r.wal.f.Close()
		delete(s.replicas, name)
	}
	s.replMu.Unlock()
}

// AppendReplicaFrames appends a batch of contiguous raw WAL frames —
// exactly as a Mirror received them — to the named shard's replica WAL.
// from is the sequence of the batch's first frame. Overlap with frames
// already on the replica is skipped (shipping retries may resend);
// a batch starting beyond the replica tail fails with ErrReplicaGap.
// Returns the replica's next expected sequence.
//
// The shard must not be open as a live history on this store.
func (s *Store) AppendReplicaFrames(name string, from uint64, frames []byte) (uint64, error) {
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
	r, err := s.openReplica(name)
	if err != nil {
		return 0, fmt.Errorf("histstore: replica %q: %w", name, err)
	}
	if from > r.next {
		return r.next, fmt.Errorf("%w: shard %q has %d, batch starts at %d", ErrReplicaGap, name, r.next, from)
	}
	// Walk the batch's framing to find where the overlap ends and where
	// among the new frames a segment begins, checking that the sequence
	// numbers are in fact contiguous from `from`.
	seq := from
	offset := int64(len(frames)) // of the first new frame (sequence r.next)
	type cut struct {
		off int64
		seq uint64
	}
	var rolls []cut
	_, err = framelog.Scan(bytes.NewReader(frames), maxFramePayload, framelog.Strict, func(off int64, p []byte) error {
		got, err := frameSeq(p)
		if err != nil {
			return err
		}
		if got != seq {
			return fmt.Errorf("frame %d out of order (want %d)", got, seq)
		}
		if got == r.next {
			offset = off
		}
		if got >= r.next && r.wal.retain > 0 && got%r.wal.retain == 0 {
			rolls = append(rolls, cut{off, got})
		}
		seq++
		return nil
	})
	if err != nil {
		return r.next, fmt.Errorf("histstore: replica %q: %w", name, err)
	}
	if seq <= r.next {
		return r.next, nil // entire batch already applied
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
		if err = write(frames[offset:c.off]); err == nil {
			_, err = r.wal.rollIfDue(c.seq)
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

// ReplicaSeq reports the next sequence the named replica shard expects
// (0 for an empty replica). Useful for observability and tests. Like
// AppendReplicaFrames it refuses to touch a shard that is open as a
// live history — opening a replica handle would scan (and possibly
// torn-tail-truncate) a WAL mid-append.
func (s *Store) ReplicaSeq(name string) (uint64, error) {
	s.mu.Lock()
	if _, open := s.shards[name]; open {
		s.mu.Unlock()
		return 0, fmt.Errorf("histstore: replica query of open shard %q", name)
	}
	s.replMu.Lock()
	s.mu.Unlock()
	defer s.replMu.Unlock()
	r, err := s.openReplica(name)
	if err != nil {
		return 0, fmt.Errorf("histstore: replica %q: %w", name, err)
	}
	return r.next, nil
}

// loadSnapshotBytes parses a snapshot document and returns its
// observation count.
func loadSnapshotBytes(raw []byte) (uint64, error) {
	h, err := core.LoadHistory(bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	return uint64(h.Len()), nil
}
