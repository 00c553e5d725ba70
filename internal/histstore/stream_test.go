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

func TestExportImportRoundTrip(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src := openStore(t, srcDir, Options{})
	defer src.Close()
	h := openHist(t, src, "Q12")
	appendN(t, h, 0, 20)

	var buf bytes.Buffer
	var armed uint64
	if err := src.ExportShard("Q12", &buf, func(next uint64) { armed = next }); err != nil {
		t.Fatal(err)
	}
	if armed != 20 {
		t.Fatalf("arm callback got next=%d, want 20", armed)
	}

	dst := openStore(t, dstDir, Options{})
	defer dst.Close()
	if err := dst.ImportShard("Q12", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	wantPrefix(t, openHist(t, dst, "Q12"), 20)

	// Import must replace stale prior state, not merge with it.
	dst2Dir := t.TempDir()
	dst2 := openStore(t, dst2Dir, Options{})
	stale := openHist(t, dst2, "Q12")
	if err := stale.Append(core.Observation{X: []float64{99}, Costs: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	dst2.Close()
	dst2 = openStore(t, dst2Dir, Options{})
	defer dst2.Close()
	if err := dst2.ImportShard("Q12", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	wantPrefix(t, openHist(t, dst2, "Q12"), 20)

	// The wire format did not move: a stream the parent commit exported
	// (15 observations compacted into its snapshot section, 5 in its
	// WAL section) imports, opens to the same history and is folded.
	legacy, err := os.ReadFile(filepath.Join("testdata", "golden", "export.stream"))
	if err != nil {
		t.Fatal(err)
	}
	dst3Dir := t.TempDir()
	dst3 := openStore(t, dst3Dir, Options{})
	defer dst3.Close()
	if err := dst3.ImportShard("Q12", bytes.NewReader(legacy)); err != nil {
		t.Fatal(err)
	}
	wantPrefix(t, openHist(t, dst3, "Q12"), 20)
	wantLayout(t, dst3Dir, "Q12", 20)
}

func TestExportImportGuards(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.ExportShard("nope", &bytes.Buffer{}, nil); err == nil {
		t.Error("export of unopened shard succeeded")
	}
	openHist(t, s, "Q12")
	var buf bytes.Buffer
	if err := s.ExportShard("Q12", &buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.ImportShard("Q12", bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("import into open shard succeeded")
	}
	// A stream is three frames ending in the end marker (header + kind);
	// anything else — a flipped payload byte, a missing end marker, a
	// section after it, an unknown kind — is refused before disk.
	const endFrameSize = framelog.HeaderSize + 4
	raw := buf.Bytes()
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-endFrameSize-1] ^= 0xff
	unknown := framelog.Append(append([]byte(nil), raw[:len(raw)-endFrameSize]...), []byte{9, 0, 0, 0})
	for name, stream := range map[string][]byte{
		"flipped byte":   flipped,
		"no end marker":  raw[:len(raw)-endFrameSize],
		"torn end":       raw[:len(raw)-1],
		"data after end": append(append([]byte(nil), raw...), raw[:endFrameSize]...),
		"unknown kind":   unknown,
	} {
		if err := s.ImportShard("Q13", bytes.NewReader(stream)); err == nil {
			t.Errorf("%s: import stream accepted", name)
		}
		if _, err := os.Stat(filepath.Join(s.root, "Q13")); !os.IsNotExist(err) {
			t.Errorf("%s: refused import touched disk: %v", name, err)
		}
	}
	if err := s.ImportShard("Q13", bytes.NewReader(raw)); err != nil {
		t.Errorf("the unmodified stream was refused: %v", err)
	}
}

func TestReplicaAppendOverlapAndGap(t *testing.T) {
	// Source shard: 10 observations, exported at 4.
	srcDir := t.TempDir()
	src := openStore(t, srcDir, Options{})
	defer src.Close()
	h := openHist(t, src, "Q12")
	appendN(t, h, 0, 4)
	var syncBuf bytes.Buffer
	if err := src.ExportShard("Q12", &syncBuf, nil); err != nil {
		t.Fatal(err)
	}
	appendN(t, h, 4, 6)
	raw, bounds := walFrames(t, srcDir, "Q12")

	dst := openStore(t, t.TempDir(), Options{})
	defer dst.Close()
	if err := dst.ImportShard("Q12", bytes.NewReader(syncBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if next, err := dst.ReplicaSeq("Q12"); err != nil || next != 4 {
		t.Fatalf("replica at %d (%v), want 4", next, err)
	}
	// Ship frames 4..7, overlapping from 2.
	if next, err := dst.AppendReplicaFrames("Q12", 2, raw[bounds[2]:bounds[7]]); err != nil || next != 7 {
		t.Fatalf("overlap append: next=%d err=%v", next, err)
	}
	// Re-ship the same batch: no-op.
	if next, err := dst.AppendReplicaFrames("Q12", 2, raw[bounds[2]:bounds[7]]); err != nil || next != 7 {
		t.Fatalf("duplicate append: next=%d err=%v", next, err)
	}
	// A gap (skipping frames 7..8) must be rejected.
	if _, err := dst.AppendReplicaFrames("Q12", 9, raw[bounds[9]:]); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gap append err = %v, want ErrReplicaGap", err)
	}
	// Finish the stream and promote: the replica opens as a live
	// history holding exactly the source's observations.
	if next, err := dst.AppendReplicaFrames("Q12", 7, raw[bounds[7]:]); err != nil || next != 10 {
		t.Fatalf("tail append: next=%d err=%v", next, err)
	}
	wantPrefix(t, openHist(t, dst, "Q12"), 10)
	// Once open, further replica appends must be refused.
	if _, err := dst.AppendReplicaFrames("Q12", 10, nil); err == nil {
		t.Error("replica append to open shard succeeded")
	}
	if _, err := dst.ReplicaSeq("Q12"); err == nil {
		t.Error("replica query of open shard succeeded")
	}
}

// TestReplicaAppendVsPromotionRace hammers the takeover interleaving:
// replica appends racing the OpenHistory that promotes the shard to a
// live history. The open-check and the append are atomic with respect
// to the promotion, so every append either lands before the shard goes
// live or is refused — never a second handle on the live WAL.
func TestReplicaAppendVsPromotionRace(t *testing.T) {
	srcDir := t.TempDir()
	src := openStore(t, srcDir, Options{})
	defer src.Close()
	h := openHist(t, src, "Q12")
	appendN(t, h, 0, 12)
	raw, bounds := walFrames(t, srcDir, "Q12")

	dst := openStore(t, t.TempDir(), Options{})
	defer dst.Close()
	if next, err := dst.AppendReplicaFrames("Q12", 0, raw[:bounds[6]]); err != nil || next != 6 {
		t.Fatalf("seed append: next=%d err=%v", next, err)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				// Overlapping suffix batches, as a retrying shipper sends.
				_, _ = dst.AppendReplicaFrames("Q12", 4, raw[bounds[4]:])
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
	if promoted == nil || promoted.Len() < 6 || promoted.Len() > 12 {
		t.Fatalf("promoted history has %d observations, want 6..12", promoted.Len())
	}
	wantPrefix(t, promoted, promoted.Len())
	if _, err := dst.AppendReplicaFrames("Q12", 4, raw[bounds[4]:]); err == nil {
		t.Error("replica append to promoted shard succeeded")
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
