package histstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/framelog"
)

// walFrames reads a shard's raw WAL bytes and the byte offset of every
// frame boundary (including 0 and the final offset).
func walFrames(t *testing.T, dir, shard string) ([]byte, []int64) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, shard, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{0}
	off := int64(0)
	for off < int64(len(raw)) {
		n := binary.LittleEndian.Uint32(raw[off:])
		off += framelog.HeaderSize + int64(n)
		bounds = append(bounds, off)
	}
	return raw, bounds
}

// TestReplayIdempotentEveryBoundary is the satellite property test:
// duplicate the WAL suffix starting at every frame boundary (the shape
// an overlapping handoff stream produces) and truncate at every frame
// boundary, and recovery must deterministically yield the longest
// applied prefix — never fail the open, never double-apply.
func TestReplayIdempotentEveryBoundary(t *testing.T) {
	const n = 12
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	appendN(t, openHist(t, s, "Q12"), 0, n)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, bounds := walFrames(t, dir, "Q12")
	if len(bounds) != n+1 {
		t.Fatalf("expected %d frames, found %d", n, len(bounds)-1)
	}
	walPath := filepath.Join(dir, "Q12", "wal.log")

	for i, b := range bounds {
		// Duplicate the suffix raw[b:]: frames b..n appear twice.
		dup := append(append([]byte(nil), raw...), raw[b:]...)
		if err := os.WriteFile(walPath, dup, 0o644); err != nil {
			t.Fatal(err)
		}
		s := openStore(t, dir, Options{})
		wantPrefix(t, openHist(t, s, "Q12"), n)
		s.Close()

		// Truncate at the boundary: only frames below i survive.
		if err := os.WriteFile(walPath, raw[:b], 0o644); err != nil {
			t.Fatal(err)
		}
		s = openStore(t, dir, Options{})
		wantPrefix(t, openHist(t, s, "Q12"), i)
		s.Close()

		// Restore for the next round.
		if err := os.WriteFile(walPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// A duplicated *prefix* (whole-log resend) must also replay cleanly.
func TestReplayWholeLogDuplicated(t *testing.T) {
	const n = 7
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	appendN(t, openHist(t, s, "Q12"), 0, n)
	s.Close()
	raw, _ := walFrames(t, dir, "Q12")
	walPath := filepath.Join(dir, "Q12", "wal.log")
	if err := os.WriteFile(walPath, append(append([]byte(nil), raw...), raw...), 0o644); err != nil {
		t.Fatal(err)
	}
	s = openStore(t, dir, Options{})
	defer s.Close()
	wantPrefix(t, openHist(t, s, "Q12"), n)
}

// A true gap — a missing frame in the middle — is data loss and must
// still fail the open rather than silently skipping history.
func TestReplayGapStillFails(t *testing.T) {
	const n = 6
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	appendN(t, openHist(t, s, "Q12"), 0, n)
	s.Close()
	raw, bounds := walFrames(t, dir, "Q12")
	// Remove frame 2.
	gap := append(append([]byte(nil), raw[:bounds[2]]...), raw[bounds[3]:]...)
	walPath := filepath.Join(dir, "Q12", "wal.log")
	if err := os.WriteFile(walPath, gap, 0o644); err != nil {
		t.Fatal(err)
	}
	s = openStore(t, dir, Options{})
	defer s.Close()
	if _, err := s.OpenHistory("Q12", 1, testMetrics); err == nil || !strings.Contains(err.Error(), "sequence gap") {
		t.Fatalf("gapped WAL opened with err = %v, want sequence gap failure", err)
	}
}

// testFrames is the raw WAL framing of test observations from..to-1:
// what a mirror ships for them, testFrameSize bytes each.
func testFrames(from, to int) []byte {
	var raw []byte
	for i := from; i < to; i++ {
		raw = appendFrame(raw, uint64(i), obsAt(i))
	}
	return raw
}

// transferCases are the two shapes of source a handoff or a standby sync
// ships: a log that never rolled, and — bounded, with two bounds' worth
// of observations behind it before the test's own — one that has.
var transferCases = []struct {
	name   string
	retain int
	off    int // observations the source holds before the test's first
}{{"unbounded", 0, 0}, {"rolled", testRetain, 2 * testRetain}}

// replicaNext reads how far s's replica of Q12 reaches, the way a peer
// can: the ack of an empty batch.
func replicaNext(t *testing.T, s *Store) int {
	t.Helper()
	next, err := s.AppendReplicaFrames("Q12", 0, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return int(next)
}

// syncShard moves src's open Q12 onto dst the way a standby sync or a
// handoff does — the cut, rebased — and returns the first sequence moved.
func syncShard(t *testing.T, src, dst *Store) int {
	t.Helper()
	from, frames, err := src.ExportShard("Q12", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := from + uint64(len(frames)/testFrameSize)
	if next, err := dst.AppendReplicaFrames("Q12", from, frames, true); err != nil || next != want {
		t.Fatalf("rebase at %d: next=%d err=%v, want %d", from, next, err, want)
	}
	return int(from)
}

func TestExportImportRoundTrip(t *testing.T) {
	for _, tc := range transferCases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.off + 20
			opts := Options{Retain: tc.retain}
			srcDir := t.TempDir()
			src := openStore(t, srcDir, opts)
			defer src.Close()
			appendN(t, openHist(t, src, "Q12"), 0, n)

			var armed uint64
			from, frames, err := src.ExportShard("Q12", func(next uint64) { armed = next })
			if err != nil {
				t.Fatal(err)
			}
			if int(armed) != n {
				t.Fatalf("arm callback got next=%d, want %d", armed, n)
			}
			// A bounded shard ships the segments it holds, not its past, and
			// nothing but their bytes.
			starts := liveStarts(tc.retain, n)
			base := int(starts[0])
			if tc.retain > 0 && (base == 0 || n-base > 2*tc.retain) {
				t.Fatalf("source holds [%d, %d): not a rolled shard within its bound", base, n)
			}
			if int(from) != base || len(frames) != (n-base)*testFrameSize {
				t.Fatalf("cut is %d bytes from %d, want frames %d..%d = %d bytes", len(frames), from, base, n-1, (n-base)*testFrameSize)
			}
			wantSegments(t, srcDir, "Q12", starts, n)

			// The receiver ends up holding what the owner holds, file for
			// file, however the cut was batched: here a rebase and one
			// continuation, split mid-segment.
			dstDir := t.TempDir()
			dst := openStore(t, dstDir, opts)
			defer dst.Close()
			const head = 5 * testFrameSize
			if next, err := dst.AppendReplicaFrames("Q12", from, frames[:head], true); err != nil || int(next) != base+5 {
				t.Fatalf("rebase: next=%d err=%v, want %d", next, err, base+5)
			}
			if next, err := dst.AppendReplicaFrames("Q12", from+5, frames[head:], false); err != nil || int(next) != n {
				t.Fatalf("continuation: next=%d err=%v, want %d", next, err, n)
			}
			wantRange(t, openHist(t, dst, "Q12"), max(base, retainedBase(n, tc.retain)), n)
			wantSegments(t, dstDir, "Q12", starts, n)

			// A rebase must replace stale prior state, not merge with it: here
			// a longer history of other observations, rolled further, that the
			// store has already been mirroring into.
			dst2Dir := t.TempDir()
			dst2 := openStore(t, dst2Dir, opts)
			stale := openHist(t, dst2, "Q12")
			for i := 0; i < n+tc.off+1; i++ {
				if err := stale.Append(core.Observation{X: []float64{99}, Costs: []float64{1, 1}}); err != nil {
					t.Fatal(err)
				}
			}
			dst2.Close()
			dst2 = openStore(t, dst2Dir, opts)
			defer dst2.Close()
			if got := replicaNext(t, dst2); got != n+tc.off+1 {
				t.Fatalf("stale replica reaches %d, want %d", got, n+tc.off+1)
			}
			if got := syncShard(t, src, dst2); got != base {
				t.Fatalf("second cut starts at %d, want %d", got, base)
			}
			wantRange(t, openHist(t, dst2, "Q12"), max(base, retainedBase(n, tc.retain)), n)
			wantSegments(t, dst2Dir, "Q12", starts, n)
		})
	}
}

func TestExportImportGuards(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	defer s.Close()
	if _, _, err := s.ExportShard("nope", nil); err == nil {
		t.Error("export of unopened shard succeeded")
	}
	appendN(t, openHist(t, s, "Q12"), 0, 6)
	from, frames, err := s.ExportShard("Q12", nil)
	if err != nil || from != 0 {
		t.Fatalf("export: from=%d err=%v", from, err)
	}
	if _, err := s.AppendReplicaFrames("Q12", from, frames, true); err == nil {
		t.Error("rebase of an open shard succeeded")
	}
	// A first batch that is not whole, contiguous frames starting at its
	// `from` is refused before disk: the replica it would have replaced
	// (frames 0..2 of another history) is still there, byte for byte.
	if _, err := s.AppendReplicaFrames("Q13", 0, frames[:3*testFrameSize], false); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), frames...)
	flipped[len(flipped)-1] ^= 0xff
	for name, batch := range map[string]struct {
		from   uint64
		frames []byte
	}{
		"flipped byte":  {0, flipped},
		"torn frame":    {0, frames[:len(frames)-1]},
		"wrong from":    {1, frames},
		"missing frame": {0, append(append([]byte(nil), frames[:2*testFrameSize]...), frames[3*testFrameSize:]...)},
	} {
		if _, err := s.AppendReplicaFrames("Q13", batch.from, batch.frames, true); err == nil {
			t.Errorf("%s: rebase accepted", name)
		}
		if got, _ := os.ReadFile(filepath.Join(dir, "Q13", walName)); !bytes.Equal(got, frames[:3*testFrameSize]) {
			t.Errorf("%s: refused rebase touched the replica (%d bytes left)", name, len(got))
		}
	}
	if next, err := s.AppendReplicaFrames("Q13", from, frames, true); err != nil || next != 6 {
		t.Errorf("the unmodified cut was refused: next=%d err=%v", next, err)
	}
	wantPrefix(t, openHist(t, s, "Q13"), 6)
	// The cut carries no shape header: the receiving store writes its own,
	// and frames of another shape still fail the open.
	if _, err := s.AppendReplicaFrames("Q14", from, frames, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenHistory("Q14", 2, testMetrics); err == nil {
		t.Error("a shard of one-feature frames opened as a two-feature history")
	}
}

// TestRebaseKilledBeforeContinuation: a receiver that dies after the
// rebase batch of a long transfer and before its last continuation holds
// a contiguous run — it reopens as a replica and as a history — and the
// next round's rebase replaces it.
func TestRebaseKilledBeforeContinuation(t *testing.T) {
	for _, tc := range transferCases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.off + 20
			opts := Options{Retain: tc.retain}
			src := openStore(t, t.TempDir(), opts)
			defer src.Close()
			h := openHist(t, src, "Q12")
			appendN(t, h, 0, n)
			from, frames, err := src.ExportShard("Q12", nil)
			if err != nil {
				t.Fatal(err)
			}
			base := int(from)

			dstDir := t.TempDir()
			dst := openStore(t, dstDir, opts)
			if _, err := dst.AppendReplicaFrames("Q12", from, frames[:11*testFrameSize], true); err != nil {
				t.Fatal(err)
			}
			dst.Close() // killed: the other 9+ frames never arrive
			dst = openStore(t, dstDir, opts)
			if got := replicaNext(t, dst); got != base+11 {
				t.Fatalf("reopened replica reaches %d, want %d", got, base+11)
			}
			dst.Close()
			dst = openStore(t, dstDir, opts)
			wantRange(t, openHist(t, dst, "Q12"), max(base, retainedBase(base+11, tc.retain)), base+11)
			dst.Close()

			dst = openStore(t, dstDir, opts)
			defer dst.Close()
			appendN(t, h, n, 3)
			syncShard(t, src, dst)
			wantRange(t, openHist(t, dst, "Q12"), max(int(liveStarts(tc.retain, n+3)[0]), retainedBase(n+3, tc.retain)), n+3)
			wantSegments(t, dstDir, "Q12", liveStarts(tc.retain, n+3), n+3)
		})
	}
}

func TestReplicaAppendOverlapAndGap(t *testing.T) {
	for _, tc := range transferCases {
		t.Run(tc.name, func(t *testing.T) {
			// Source shard: off+10 observations, exported at off+4. What
			// ships afterwards is frames(i, j): test frames off+i..off+j-1.
			off, opts := tc.off, Options{Retain: tc.retain}
			frames := func(i, j int) []byte { return testFrames(off+i, off+j) }
			src := openStore(t, t.TempDir(), opts)
			defer src.Close()
			appendN(t, openHist(t, src, "Q12"), 0, off+4)

			dstDir := t.TempDir()
			dst := openStore(t, dstDir, opts)
			defer func() { dst.Close() }()
			syncShard(t, src, dst)
			wantNext := func(step string, want int, next uint64, err error) {
				t.Helper()
				if err != nil || int(next) != off+want {
					t.Fatalf("%s: next=%d err=%v, want %d", step, next, err, off+want)
				}
			}
			wantNext("replica after the sync", 4, uint64(replicaNext(t, dst)), nil)
			// Ship frames 4..6, overlapping from 2.
			next, err := dst.AppendReplicaFrames("Q12", uint64(off+2), frames(2, 7), false)
			wantNext("overlap append", 7, next, err)
			// Re-ship the same batch: no-op.
			next, err = dst.AppendReplicaFrames("Q12", uint64(off+2), frames(2, 7), false)
			wantNext("duplicate append", 7, next, err)
			// A gap (skipping frames 7..8) must be rejected.
			if _, err := dst.AppendReplicaFrames("Q12", uint64(off+9), frames(9, 10), false); !errors.Is(err, ErrReplicaGap) {
				t.Fatalf("gap append err = %v, want ErrReplicaGap", err)
			}
			// Finish the stream — for the rolled source, across the multiple
			// of the bound at off+8, where the replica rolls as the owner did.
			next, err = dst.AppendReplicaFrames("Q12", uint64(off+7), frames(7, 10), false)
			wantNext("tail append", 10, next, err)
			wantSegments(t, dstDir, "Q12", liveStarts(tc.retain, off+10), off+10)
			// A restarted standby finds its place from the newest segment.
			if err := dst.Close(); err != nil {
				t.Fatal(err)
			}
			dst = openStore(t, dstDir, opts)
			wantNext("replica after a restart", 10, uint64(replicaNext(t, dst)), nil)
			// Promote: the replica opens as a live history holding exactly
			// the source's observations.
			wantRange(t, openHist(t, dst, "Q12"), retainedBase(off+10, tc.retain), off+10)
			// Once open, further replica appends must be refused.
			if _, err := dst.AppendReplicaFrames("Q12", uint64(off+10), nil, false); err == nil {
				t.Error("replica append to open shard succeeded")
			}
		})
	}
}

// TestCompactedReplicaResyncs: a standby's replica a compacting build
// left — the committed fixture, observations 0..5 in snapshot.json and
// 6..10 in wal.log — reaches nothing this build can extend: the next
// append batch, even one that would continue the fixture's frames, is a
// gap. The full sync the owner answers a gap with rebases it, the old
// snapshot goes, and the replica promotes to the owner's history.
func TestCompactedReplicaResyncs(t *testing.T) {
	dir := writeShardDir(t, "Q12", map[string][]byte{
		snapshotName: golden(t, "Q12", snapshotName), walName: golden(t, "Q12", walName),
	})
	dst := openStore(t, dir, Options{})
	defer dst.Close()
	if next, err := dst.AppendReplicaFrames("Q12", 11, testFrames(11, 12), false); !errors.Is(err, ErrReplicaGap) || next != 0 {
		t.Fatalf("append at 11 onto the compacted replica: next=%d err=%v, want a gap at 0", next, err)
	}
	src := openStore(t, t.TempDir(), Options{})
	defer src.Close()
	appendN(t, openHist(t, src, "Q12"), 0, 12)
	syncShard(t, src, dst)
	files := readDir(t, filepath.Join(dir, "Q12"))
	if _, ok := files[snapshotName]; ok || len(files) != 1 || !bytes.Equal(files[walName], testFrames(0, 12)) {
		t.Fatalf("after the full sync the replica holds %d files, want wal.log alone with frames 0..11", len(files))
	}
	wantPrefix(t, openHist(t, dst, "Q12"), 12)
}

// TestReplicaRollsAndTrims: a standby fed one long stream holds what the
// owner holds — the same segments, by the same rule, without either
// telling the other — and promotes to the same history.
func TestReplicaRollsAndTrims(t *testing.T) {
	const n = 7*testRetain + 5
	for _, durable := range []bool{false, true} {
		opts := Options{Retain: testRetain, GroupCommit: durable}
		m := newMirrorLog()
		srcOpts := opts
		srcOpts.Mirror = m
		srcDir, dstDir := t.TempDir(), t.TempDir()
		src, dst := openStore(t, srcDir, srcOpts), openStore(t, dstDir, opts)
		h := openHist(t, src, "Q12")
		// The stream starts, as a standby's does, with a sync.
		shipped := 3
		appendN(t, h, 0, shipped)
		syncShard(t, src, dst)
		for _, upTo := range []int{testRetain, testRetain + 1, 3*testRetain - 1, 6 * testRetain, n} { // batches that end at, after and span rolls
			appendN(t, h, shipped, upTo-shipped)
			m.mu.Lock()
			batch := m.shards["Q12"][shipped*testFrameSize : upTo*testFrameSize]
			m.mu.Unlock()
			if next, err := dst.AppendReplicaFrames("Q12", uint64(shipped), batch, false); err != nil || int(next) != upTo {
				t.Fatalf("durable=%v: shipping %d..%d: next=%d err=%v", durable, shipped, upTo-1, next, err)
			}
			shipped = upTo
			wantSegments(t, srcDir, "Q12", liveStarts(testRetain, upTo), upTo)
			wantSegments(t, dstDir, "Q12", liveStarts(testRetain, upTo), upTo)
		}
		wantRange(t, openHist(t, dst, "Q12"), retainedBase(n, testRetain), n)
		src.Close()
		dst.Close()
	}
}

// TestReplicaAppendVsPromotionRace hammers the takeover interleaving:
// replica appends racing the OpenHistory that promotes the shard to a
// live history. The open-check and the append are atomic with respect
// to the promotion, so every append either lands before the shard goes
// live or is refused — never a second handle on the live WAL.
func TestReplicaAppendVsPromotionRace(t *testing.T) {
	for _, tc := range transferCases {
		t.Run(tc.name, func(t *testing.T) {
			// The standby was synced at off+6 of the source's off+12; for the
			// rolled source the racing batches cross a roll at off+8.
			off, opts := tc.off, Options{Retain: tc.retain}
			src := openStore(t, t.TempDir(), opts)
			defer src.Close()
			appendN(t, openHist(t, src, "Q12"), 0, off+6)
			dst := openStore(t, t.TempDir(), opts)
			defer dst.Close()
			syncShard(t, src, dst)
			suffix := testFrames(off+4, off+12)

			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < 50; i++ {
						// Overlapping suffix batches, as a retrying shipper sends.
						_, _ = dst.AppendReplicaFrames("Q12", uint64(off+4), suffix, false)
					}
				}()
			}
			wg.Add(1)
			var promoted *core.History
			go func() {
				defer wg.Done()
				<-start
				var err error
				promoted, err = dst.OpenHistory("Q12", 1, testMetrics)
				if err != nil {
					t.Errorf("promotion open: %v", err)
				}
			}()
			close(start)
			wg.Wait()
			// The promoted history is an intact prefix of the source, and the
			// shard refuses replica traffic from here on.
			if promoted == nil || promoted.Len() < off+6 || promoted.Len() > off+12 {
				t.Fatalf("promoted history has %d observations, want %d..%d", promoted.Len(), off+6, off+12)
			}
			base := max(int(liveStarts(tc.retain, off+6)[0]), retainedBase(promoted.Len(), tc.retain))
			wantRange(t, promoted, base, promoted.Len())
			if _, err := dst.AppendReplicaFrames("Q12", uint64(off+4), suffix, false); err == nil {
				t.Error("replica append to promoted shard succeeded")
			}
		})
	}
}

// mirrorLog is a test Mirror recording (seq, frame) pairs.
type mirrorLog struct {
	mu     sync.Mutex
	shards map[string][]byte
	seqs   map[string][]uint64
	waits  map[string]uint64
}

func newMirrorLog() *mirrorLog {
	return &mirrorLog{shards: map[string][]byte{}, seqs: map[string][]uint64{}, waits: map[string]uint64{}}
}

func (m *mirrorLog) AppendFrame(shard string, seq uint64, frame []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shards[shard] = append(m.shards[shard], frame...)
	m.seqs[shard] = append(m.seqs[shard], seq)
}

func (m *mirrorLog) WaitFrame(shard string, seq uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if seq+1 > m.waits[shard] {
		m.waits[shard] = seq + 1
	}
	return nil
}

// The mirror sees every append, in WAL order, with the on-disk bytes.
func TestMirrorReceivesWALOrder(t *testing.T) {
	for _, gc := range []bool{false, true} {
		m := newMirrorLog()
		dir := t.TempDir()
		s := openStore(t, dir, Options{Mirror: m, GroupCommit: gc})
		appendN(t, openHist(t, s, "Q12"), 0, 20)
		s.Close()
		raw, _ := walFrames(t, dir, "Q12")
		m.mu.Lock()
		if !bytes.Equal(m.shards["Q12"], raw) {
			t.Errorf("gc=%v: mirrored bytes differ from WAL (%d vs %d bytes)", gc, len(m.shards["Q12"]), len(raw))
		}
		for i, seq := range m.seqs["Q12"] {
			if seq != uint64(i) {
				t.Errorf("gc=%v: mirror frame %d carried seq %d", gc, i, seq)
			}
		}
		if m.waits["Q12"] != 20 {
			t.Errorf("gc=%v: WaitFrame high-water %d, want 20", gc, m.waits["Q12"])
		}
		m.mu.Unlock()
	}
}

// TestReplicaBatchAllocBudget: a standby applying a one-frame batch —
// the synchronous ship behind every acked write of a replicated tenant
// — decodes it in place, with no read buffer and no payload copy.
func TestReplicaBatchAllocBudget(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	const runs = 100
	frames := make([][]byte, runs+2) // AllocsPerRun's warm-up call, the runs, and the batch that arms
	for i := range frames {
		frames[i] = testFrames(i, i+1)
	}
	if _, err := s.AppendReplicaFrames("Q12", 0, frames[0], false); err != nil {
		t.Fatal(err)
	}
	seq := 1
	allocs := testing.AllocsPerRun(runs, func() {
		if next, err := s.AppendReplicaFrames("Q12", uint64(seq), frames[seq], false); err != nil || next != uint64(seq+1) {
			t.Fatalf("batch at %d: next=%d err=%v", seq, next, err)
		}
		seq++
	})
	t.Logf("%.1f allocs per one-frame batch", allocs)
	if allocs > 0 {
		t.Errorf("one-frame replica batch: %.1f allocs, want none", allocs)
	}
}
