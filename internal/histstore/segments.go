package histstore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/framelog"
)

// A shard's WAL is a run of segment files, each named for the sequence
// number of its first frame:
//
//	wal.log                        the segment that starts at 0
//	wal-<start, 20 digits>.log     every later one
//
// With Options.Retain = R the log rolls to a new segment at every
// multiple of R and then unlinks, oldest first, each segment that lies
// wholly below core.RetainedBase — nothing is ever rewritten, and the
// frames present are always one contiguous run ending at the newest.
// Without it there is one segment, wal.log, for ever.

const (
	walName       = "wal.log"
	segmentPrefix = "wal-"
	segmentSuffix = ".log"
)

func segmentName(start uint64) string {
	if start == 0 {
		return walName
	}
	return fmt.Sprintf("%s%020d%s", segmentPrefix, start, segmentSuffix)
}

// listSegments returns the start sequences of the segment files in
// dir, ascending, and deletes leftover temp files on the way: each is a
// header write that never committed, and nothing is read from one.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var starts []uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, framelog.TmpSuffix):
			_ = os.Remove(filepath.Join(dir, name)) // best effort: it is never read
		case name == walName:
			starts = append(starts, 0)
		case strings.HasPrefix(name, segmentPrefix) && strings.HasSuffix(name, segmentSuffix):
			digits := name[len(segmentPrefix) : len(name)-len(segmentSuffix)]
			start, err := strconv.ParseUint(digits, 10, 64)
			if err != nil || name != segmentName(start) {
				return nil, fmt.Errorf("unrecognised wal segment %q", name)
			}
			starts = append(starts, start)
		}
	}
	slices.Sort(starts)
	return starts, nil
}

// walFile is what a log needs of its segment handle: an *os.File, or a
// fault injector in tests.
type walFile interface {
	io.Writer
	Sync() error
	Close() error
}

// segLog is the append end of a segmented WAL, shared by a live shard
// and a standby's replica: the handle on the newest segment, the starts
// of every segment present, and the roll-and-trim rule. Its owner
// serialises every call.
type segLog struct {
	dir    string
	retain uint64 // Options.Retain
	// durable is set when appends are acknowledged as fsynced (Options.
	// Fsync): a roll must then make the closing segment and the new name
	// durable too.
	durable bool
	create  func(path string) (walFile, error)
	remove  func(path string) error

	f      walFile  // the newest segment, positioned at its end
	starts []uint64 // ascending; the last is f's
	// closedDirty: a segment was closed without an fsync (only a log
	// that is not durable does that) and sync has not run since.
	closedDirty bool
}

// segLog is the store's log over the segments of dir that start at
// starts, f being the open handle on the last of them.
func (s *Store) segLog(dir string, f walFile, starts []uint64) segLog {
	return segLog{
		dir: dir, retain: uint64(s.opts.Retain),
		create: s.createSegment, remove: s.removeSegment,
		f: f, starts: starts,
		// GroupCommit: Fsync's synonym, for the frozen bench/ (ROADMAP 1(a)).
		durable: s.opts.Fsync || s.opts.GroupCommit,
	}
}

// createSegment is the default segLog.create. O_EXCL: a file of that
// name would hold frames nobody replayed.
func createSegment(path string) (walFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// held is how many frames the segments present span when next is the
// sequence of the next append.
func (l *segLog) held(next uint64) uint64 { return next - l.starts[0] }

// syncClosed pays the fsync a roll of a log that is not durable left
// owing: the closed segments, by name. The newest is its handle's Sync.
func (l *segLog) syncClosed() error {
	if !l.closedDirty {
		return nil
	}
	for _, start := range l.starts[:len(l.starts)-1] {
		f, err := os.Open(filepath.Join(l.dir, segmentName(start)))
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return err
		}
	}
	l.closedDirty = false
	return nil
}

// rollDue reports whether the frame about to be written, seq, starts a
// new segment: every multiple of retain does.
func (l *segLog) rollDue(seq uint64) bool {
	return l.retain != 0 && seq%l.retain == 0 && seq > l.starts[len(l.starts)-1]
}

// roll, when rollDue(seq), closes the newest segment, starts the next
// one and unlinks what the retention rule no longer needs. In a durable
// log the closing segment is fsynced first, so no frame in it is ever
// covered only by a later fsync of a different file, and the directory
// after the create, so an acknowledged frame cannot sit in a file whose
// name a crash forgets; otherwise the next sync owes the closed segment
// its fsync. An error leaves the log unusable.
func (l *segLog) roll(seq uint64) error {
	if l.durable {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal fsync: %w", err)
		}
	} else {
		l.closedDirty = true
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("closing wal segment: %w", err)
	}
	f, err := l.create(filepath.Join(l.dir, segmentName(seq)))
	if err != nil {
		return fmt.Errorf("creating wal segment: %w", err)
	}
	l.f, l.starts = f, append(l.starts, seq)
	if l.durable {
		if err := framelog.SyncDir(l.dir); err != nil {
			return fmt.Errorf("wal directory fsync: %w", err)
		}
	}
	// Oldest first, so a crash between two unlinks leaves a contiguous
	// run. A failed unlink only costs disk: the next roll tries again.
	keep := core.RetainedBase(seq, l.retain)
	for len(l.starts) > 1 && l.starts[1] <= keep {
		if err := l.remove(filepath.Join(l.dir, segmentName(l.starts[0]))); err != nil && !os.IsNotExist(err) {
			break
		}
		l.starts = l.starts[1:]
	}
	return nil
}
