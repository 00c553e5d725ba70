package histstore

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/framelog"
	"repro/internal/metrics"
)

var testMetrics = []string{"time_s", "money_usd"}

// testFrameSize is the WAL frame size of one obsAt observation: header,
// seq + counts, one feature and two costs.
const testFrameSize = framelog.HeaderSize + 12 + 8*3

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func openHist(t *testing.T, s *Store, name string) *core.History {
	t.Helper()
	h, err := s.OpenHistory(name, 1, testMetrics)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// obsAt builds the deterministic i-th test observation.
func obsAt(i int) core.Observation {
	return core.Observation{
		X:     []float64{float64(i)},
		Costs: []float64{2 * float64(i), 3 * float64(i)},
	}
}

func appendN(t *testing.T, h *core.History, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if err := h.Append(obsAt(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// wantPrefix asserts h holds exactly the first n test observations.
func wantPrefix(t *testing.T, h *core.History, n int) {
	t.Helper()
	if h.Len() != n {
		t.Fatalf("history len = %d, want %d", h.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, want := h.At(i), obsAt(i)
		if got.X[0] != want.X[0] || got.Costs[0] != want.Costs[0] || got.Costs[1] != want.Costs[1] {
			t.Fatalf("observation %d = %+v, want %+v", i, got, want)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	h := openHist(t, s, "Q12")
	appendN(t, h, 0, 9)
	// Same store, same name: the identical live history comes back.
	if again := openHist(t, s, "Q12"); again != h {
		t.Fatal("reopening within one store did not return the cached history")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh process: recovery replays the WAL (no snapshot yet).
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	h2 := openHist(t, s2, "Q12")
	wantPrefix(t, h2, 9)
	// The recovered history keeps persisting.
	appendN(t, h2, 9, 3)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, dir, Options{})
	defer s3.Close()
	wantPrefix(t, openHist(t, s3, "Q12"), 12)
}

// TestRecoveredEstimatesIdentical is the determinism contract: a
// recovered history produces byte-identical DREAM estimates.
func TestRecoveredEstimatesIdentical(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	h := openHist(t, s, "Q13")
	appendN(t, h, 0, 20)
	est, err := core.NewEstimator(core.Config{MMax: 10})
	if err != nil {
		t.Fatal(err)
	}
	want, err := est.EstimateCostValue(h, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	got, err := est.EstimateCostValue(openHist(t, s2, "Q13"), []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if got.WindowSize != want.WindowSize || got.Converged != want.Converged {
		t.Fatalf("window fit differs: %d/%v vs %d/%v",
			got.WindowSize, got.Converged, want.WindowSize, want.Converged)
	}
	for i := range want.Metrics {
		if got.Metrics[i].Value != want.Metrics[i].Value || got.Metrics[i].R2 != want.Metrics[i].R2 {
			t.Fatalf("metric %d estimate differs: %+v vs %+v", i, got.Metrics[i], want.Metrics[i])
		}
	}
}

func TestCheckpointCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	h := openHist(t, s, "Q12")
	appendN(t, h, 0, 8)

	walPath := filepath.Join(dir, "Q12", walName)
	before, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() == 0 {
		t.Fatal("wal empty before checkpoint")
	}
	if err := s.Checkpoint("Q12", h.Snapshot()); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != 0 {
		t.Fatalf("wal holds %d bytes after full checkpoint, want 0", after.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, "Q12", snapshotName)); err != nil {
		t.Fatalf("no snapshot after checkpoint: %v", err)
	}

	// Appends after the checkpoint land in the (fresh) WAL; recovery
	// stitches snapshot + suffix back together.
	appendN(t, h, 8, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	wantPrefix(t, openHist(t, s2, "Q12"), 12)
}

// TestCheckpointWithStaleSnapshot: a snapshot taken before further
// appends compacts only its prefix; the newer records stay in the WAL.
func TestCheckpointWithStaleSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	h := openHist(t, s, "Q12")
	appendN(t, h, 0, 5)
	snap := h.Snapshot() // covers 5
	appendN(t, h, 5, 3)  // 3 more after the snapshot was taken
	if err := s.Checkpoint("Q12", snap); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "Q12", walName))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3 * testFrameSize); fi.Size() != want {
		t.Fatalf("wal holds %d bytes after partial checkpoint, want %d", fi.Size(), want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	wantPrefix(t, openHist(t, s2, "Q12"), 8)
}

// TestRecoverySkipsCoveredFrames simulates a crash between the
// checkpoint's snapshot rename and its WAL compaction: the WAL still
// holds every frame, the snapshot covers a prefix, and replay must not
// duplicate the overlap.
func TestRecoverySkipsCoveredFrames(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	h := openHist(t, s, "Q12")
	appendN(t, h, 0, 7)
	walPath := filepath.Join(dir, "Q12", walName)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint("Q12", h.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Undo the compaction, as if the crash hit before the WAL rewrite.
	if err := os.WriteFile(walPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	wantPrefix(t, openHist(t, s2, "Q12"), 7)
}

// TestTornTailEveryByteOffset is the WAL's torn-tail policy: a log cut
// inside its final frame recovers the prefix before it, is truncated
// there and counted, and the shard keeps working. That EVERY cut yields
// a valid prefix is framelog's property (its test of the same name);
// here the first, a middle and the last byte of the tail frame stand in.
func TestTornTailEveryByteOffset(t *testing.T) {
	const n = 6
	master := t.TempDir()
	s := openStore(t, master, Options{})
	appendN(t, openHist(t, s, "Q12"), 0, n)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(master, "Q12", walName))
	if err != nil {
		t.Fatal(err)
	}
	if len(walBytes) != n*testFrameSize {
		t.Fatalf("wal is %d bytes, want %d", len(walBytes), n*testFrameSize)
	}
	tailStart := (n - 1) * testFrameSize
	for _, cut := range []int{tailStart + 1, tailStart + framelog.HeaderSize, len(walBytes) - 1} {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "Q12"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "Q12", walName), walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		s2 := openStore(t, dir, Options{Metrics: reg, MetricsStore: "t"})
		h := openHist(t, s2, "Q12")
		wantPrefix(t, h, n-1)
		if got := s2.obs.tornTails.Value(); got != 1 {
			t.Fatalf("cut at %d: torn tails counted = %v, want 1", cut, got)
		}
		// The torn tail was truncated: appending and re-recovering
		// yields a clean continuation.
		appendN(t, h, n-1, 1)
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		s3 := openStore(t, dir, Options{})
		wantPrefix(t, openHist(t, s3, "Q12"), n)
		if err := s3.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptMidFrameTruncates: a bit flip inside an interior frame
// ends replay there; the valid prefix before it survives.
func TestCorruptMidFrameTruncates(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	appendN(t, openHist(t, s, "Q12"), 0, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "Q12", walName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	const frameSize = testFrameSize
	raw[2*frameSize+framelog.HeaderSize+3] ^= 0xff // payload of frame 2
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	wantPrefix(t, openHist(t, s2, "Q12"), 2)
	// Frames 3 and 4 sat behind the corruption and are gone; the file
	// must have been truncated so new appends extend the valid prefix.
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != int64(2*frameSize) {
		t.Fatalf("wal size = %v (err %v), want %d", fi.Size(), err, 2*frameSize)
	}
}

// TestDroppedInSnapshotOpens: a document written by core.SaveSnapshot
// (what the retired History.Save produced) dropped in as a shard's
// snapshot.json is a valid shard — it opens, and the WAL takes over
// for everything appended afterwards.
func TestDroppedInSnapshotOpens(t *testing.T) {
	saved, err := core.NewHistory(1, testMetrics...)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, saved, 0, 6)
	var doc bytes.Buffer
	if err := core.SaveSnapshot(saved.Snapshot(), &doc); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "Q12"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "Q12", snapshotName), doc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir, Options{})
	h := openHist(t, s, "Q12")
	wantPrefix(t, h, 6)
	appendN(t, h, 6, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "Q12", walName)); err != nil || fi.Size() != 3*testFrameSize {
		t.Fatalf("wal after 3 appends: %v (err %v), want %d bytes", fi, err, 3*testFrameSize)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	wantPrefix(t, openHist(t, s2, "Q12"), 9)
	// A garbage document fails the open instead of starting empty.
	if err := os.MkdirAll(filepath.Join(dir, "Q14"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "Q14", snapshotName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.OpenHistory("Q14", 1, testMetrics); err == nil {
		t.Fatal("shard with a garbage snapshot opened")
	}
}

func TestOpenHistoryShapeMismatch(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	// Shard A: WAL only. Shard B: compacted into a snapshot.
	appendN(t, openHist(t, s, "A"), 0, 3)
	hb := openHist(t, s, "B")
	appendN(t, hb, 0, 3)
	if err := s.Checkpoint("B", hb.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	// A mismatched open must fail loudly, not truncate good records.
	if _, err := s2.OpenHistory("A", 2, testMetrics); err == nil {
		t.Fatal("dim mismatch against WAL accepted")
	}
	if _, err := s2.OpenHistory("B", 2, testMetrics); err == nil {
		t.Fatal("dim mismatch against snapshot accepted")
	}
	if _, err := s2.OpenHistory("B", 1, []string{"other", "names"}); err == nil {
		t.Fatal("metric mismatch against snapshot accepted")
	}
	// The failed opens destroyed nothing: correct shapes still recover.
	s3 := openStore(t, dir, Options{})
	defer s3.Close()
	wantPrefix(t, openHist(t, s3, "A"), 3)
	wantPrefix(t, openHist(t, s3, "B"), 3)
}

func TestFsyncOptionAppends(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Fsync: true})
	h := openHist(t, s, "Q12")
	appendN(t, h, 0, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	wantPrefix(t, openHist(t, s2, "Q12"), 3)
}

func TestAppendAfterCloseFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	h := openHist(t, s, "Q12")
	appendN(t, h, 0, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Append(obsAt(2)); err == nil {
		t.Fatal("append after Close succeeded")
	}
	// Write-ahead contract: the failed append is not in memory either.
	if h.Len() != 2 {
		t.Fatalf("history len = %d after failed append, want 2", h.Len())
	}
}

// TestConcurrentAppendsAndCheckpoints drives appenders against periodic
// checkpoints under the race detector, then verifies the recovered
// history is identical to the live one — WAL order is memory order.
func TestConcurrentAppendsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	h := openHist(t, s, "Q12")
	const (
		appenders = 4
		perWorker = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < appenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				o := core.Observation{
					X:     []float64{float64(w*perWorker + i)},
					Costs: []float64{1, 2},
				}
				if err := h.Append(o); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var cpWG sync.WaitGroup
	cpWG.Add(1)
	go func() {
		defer cpWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := s.Checkpoint("Q12", h.Snapshot()); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	cpWG.Wait()
	if t.Failed() {
		return
	}
	if err := s.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	h2 := openHist(t, s2, "Q12")
	if h2.Len() != h.Len() {
		t.Fatalf("recovered %d observations, live has %d", h2.Len(), h.Len())
	}
	for i := 0; i < h.Len(); i++ {
		if h.At(i).X[0] != h2.At(i).X[0] {
			t.Fatalf("observation %d diverged: live %v, recovered %v", i, h.At(i).X, h2.At(i).X)
		}
	}
}

func TestShardNameEscaping(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	defer s.Close()
	// A hostile name must stay inside the store root.
	h, err := s.OpenHistory("../escape/Q12", 1, testMetrics)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, h, 0, 1)
	if _, err := os.Stat(filepath.Join(dir, "..", "escape")); !os.IsNotExist(err) {
		t.Fatal("shard escaped the store root")
	}
}

// TestGoldenFixtures pins the on-disk formats against files written by
// the commit BEFORE the codecs moved onto internal/framelog (its
// histstore.Open → 6 appends → Checkpoint → 5 appends → Close, plus the
// same WAL cut 5 bytes into its last frame): today's decoders read
// them, and today's encoders reproduce them byte for byte.
func TestGoldenFixtures(t *testing.T) {
	golden := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	install := func(wal []byte) string {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "Q12"), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, raw := range map[string][]byte{snapshotName: golden("Q12/" + snapshotName), walName: wal} {
			if err := os.WriteFile(filepath.Join(dir, "Q12", name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	// Decode: the parent-written shard recovers whole, the torn one
	// recovers its prefix and is cut back to it.
	s := openStore(t, install(golden("Q12/"+walName)), Options{})
	wantPrefix(t, openHist(t, s, "Q12"), 11)
	s.Close()
	tornDir := install(golden("wal-torn.log"))
	s = openStore(t, tornDir, Options{})
	wantPrefix(t, openHist(t, s, "Q12"), 10)
	s.Close()
	if fi, err := os.Stat(filepath.Join(tornDir, "Q12", walName)); err != nil || fi.Size() != 4*testFrameSize {
		t.Fatalf("torn fixture after recovery: %v (err %v), want %d bytes", fi, err, 4*testFrameSize)
	}
	// Encode: the same operations write the same bytes.
	dir := t.TempDir()
	s = openStore(t, dir, Options{})
	h := openHist(t, s, "Q12")
	appendN(t, h, 0, 6)
	if err := s.Checkpoint("Q12", h.Snapshot()); err != nil {
		t.Fatal(err)
	}
	appendN(t, h, 6, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{snapshotName, walName} {
		got, err := os.ReadFile(filepath.Join(dir, "Q12", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden("Q12/"+name)) {
			t.Errorf("%s differs from the parent-written fixture", name)
		}
	}
}
