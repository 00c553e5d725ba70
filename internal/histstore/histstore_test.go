package histstore

import (
	"bytes"
	"errors"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
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
	wantRange(t, h, 0, n)
}

// wantLayout asserts the shard directory is in the one-file layout:
// wal.log holds exactly frames 0..n-1 of the test observations' shape
// and snapshot.json is the header of that shape. It returns the WAL
// bytes.
func wantLayout(t *testing.T, dir, shard string, n int) []byte {
	t.Helper()
	wal, err := os.ReadFile(filepath.Join(dir, shard, walName))
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) != n*testFrameSize {
		t.Fatalf("wal.log is %d bytes, want %d frames = %d", len(wal), n, n*testFrameSize)
	}
	raw, err := os.ReadFile(filepath.Join(dir, shard, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if want := headerBytes(t, 1, testMetrics); !bytes.Equal(raw, want) {
		t.Fatalf("snapshot.json = %q, want the header %q", raw, want)
	}
	return wal
}

// headerBytes is the snapshot.json writeHeader writes for a shape.
func headerBytes(t testing.TB, dim int, metrics []string) []byte {
	t.Helper()
	dir := t.TempDir()
	if err := writeHeader(dir, dim, metrics); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// readDir reads every file of a directory, by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// golden reads a committed fixture.
func golden(t *testing.T, path ...string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(append([]string{"testdata", "golden"}, path...)...))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// writeShardDir writes a shard directory holding the given files.
func writeShardDir(t *testing.T, shard string, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, shard), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, raw := range files {
		if err := os.WriteFile(filepath.Join(dir, shard, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
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

	// Fresh process: recovery replays the WAL.
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
	wantLayout(t, dir, "Q12", 12)
}

// wantRange asserts h counts n observations and holds exactly the test
// observations base..n-1.
func wantRange(t *testing.T, h *core.History, base, n int) {
	t.Helper()
	if h.Len() != n || h.Base() != base {
		t.Fatalf("history holds [%d, %d), want [%d, %d)", h.Base(), h.Len(), base, n)
	}
	for i := base; i < n; i++ {
		if got, want := h.At(i), obsAt(i); !sameBits(got, want) {
			t.Fatalf("observation %d = %+v, want %+v", i, got, want)
		}
	}
}

// liveStarts is where the segments of a log that rolled every retain
// frames start once n frames are written: the one the last frame went
// to and, the rule keeping at least retain frames, the one before it.
func liveStarts(retain, n int) []uint64 {
	if retain == 0 || n <= retain {
		return []uint64{0}
	}
	newest := uint64((n - 1) / retain * retain)
	return []uint64{newest - uint64(retain), newest}
}

// wantSegments asserts the shard directory holds exactly the segments
// starting at starts, whole test-observation frames running on from one
// file to the next up to frame n-1, and nothing else but the header.
func wantSegments(t *testing.T, dir, shard string, starts []uint64, n int) {
	t.Helper()
	got, err := listSegments(filepath.Join(dir, shard))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, starts) {
		t.Fatalf("segments start at %v, want %v (%d appended)", got, starts, n)
	}
	for i, start := range starts {
		end := uint64(n)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		fi, err := os.Stat(filepath.Join(dir, shard, segmentName(start)))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(end-start)*testFrameSize {
			t.Fatalf("%s is %d bytes, want frames %d..%d = %d", segmentName(start), fi.Size(), start, end-1, int64(end-start)*testFrameSize)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, shard))
	if err != nil {
		t.Fatal(err)
	}
	// The header is written at the first open: a replica has none yet.
	entries = slices.DeleteFunc(entries, func(e os.DirEntry) bool { return e.Name() == snapshotName })
	if len(entries) != len(starts) {
		t.Fatalf("shard directory holds %d files beside the header, want the %d segments", len(entries), len(starts))
	}
}

// TestRecoveredEstimatesIdentical is the determinism contract, checked
// over seeded random schedules of append, Sync, reopen and crash, with
// and without a retention bound small enough that the schedule rolls
// and trims the log several times. A crash is the directory as a dead
// machine would leave it: the closed segments whole, the newest cut at
// an arbitrary byte at or beyond its size at the last Sync. Whatever
// the cut, the recovered history counts a prefix of what was appended
// that includes everything appended before that Sync, holds the suffix
// of it the retention rule keeps, and produces bit-identical DREAM
// estimates to a history that was never persisted and never bounded.
// Along the way the directory is exactly the segments the rule leaves:
// without a bound, a wal.log that only grows.
func TestRecoveredEstimatesIdentical(t *testing.T) {
	est, err := core.NewEstimator(core.Config{MMax: 10})
	if err != nil {
		t.Fatal(err)
	}
	// A history too short to fit fails the same way on both sides.
	estimate := func(h *core.History) (core.Estimate, string) {
		e, err := est.EstimateCostValue(h, []float64{7})
		if err != nil {
			return core.Estimate{}, err.Error()
		}
		return *e, ""
	}
	modes := []Options{{}, {Fsync: true}, {GroupCommit: true}}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := modes[seed%3]
		opts.Retain = []int{0, 16}[seed%2]
		dir := t.TempDir()
		s := openStore(t, dir, opts)
		h := openHist(t, s, "Q13")
		header, err := os.ReadFile(filepath.Join(dir, "Q13", snapshotName))
		if err != nil {
			t.Fatal(err)
		}
		var appended, syncedN int
		for step := 0; step < 100; step++ {
			switch r := rng.Intn(10); {
			case r < 6:
				n := 1 + rng.Intn(4)
				appendN(t, h, appended, n)
				appended += n
				if opts.Fsync || opts.GroupCommit {
					// Every acknowledged append is its own durability point.
					syncedN = appended
				}
			case r < 7:
				if err := s.Sync(); err != nil {
					t.Fatal(err)
				}
				syncedN = appended
			case r < 8:
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s = openStore(t, dir, opts)
				h = openHist(t, s, "Q13")
			default:
				starts := liveStarts(opts.Retain, appended)
				newest := starts[len(starts)-1]
				files := map[string][]byte{snapshotName: header}
				for _, start := range starts {
					if files[segmentName(start)], err = os.ReadFile(filepath.Join(dir, "Q13", segmentName(start))); err != nil {
						t.Fatal(err)
					}
				}
				wal := files[segmentName(newest)]
				synced := int64(max(syncedN-int(newest), 0)) * testFrameSize
				cut := synced + rng.Int63n(int64(len(wal))-synced+1)
				files[segmentName(newest)] = wal[:cut]
				crashed := writeShardDir(t, "Q13", files)
				s2 := openStore(t, crashed, Options{Retain: opts.Retain})
				h2 := openHist(t, s2, "Q13")
				got := h2.Len()
				if got != int(newest)+int(cut)/testFrameSize || got < syncedN || got > appended {
					t.Fatalf("seed %d step %d: cut at %d of %d in %s recovered %d observations (synced %d, appended %d)",
						seed, step, cut, len(wal), segmentName(newest), got, syncedN, appended)
				}
				// Memory trims as the count reaches a multiple of the bound,
				// the files one append later, as the log rolls.
				wantRange(t, h2, max(int(starts[0]), int(core.RetainedBase(uint64(got), uint64(opts.Retain)))), got)
				// Torn-tail truncation at open is the one way a file shrinks.
				wantSegments(t, crashed, "Q13", starts, got)
				ref, err := core.NewHistory(1, testMetrics...)
				if err != nil {
					t.Fatal(err)
				}
				appendN(t, ref, 0, got)
				want, wantErr := estimate(ref)
				have, haveErr := estimate(h2)
				if haveErr != wantErr || have.WindowSize != want.WindowSize || have.Converged != want.Converged {
					t.Fatalf("seed %d step %d: window fit differs: %d/%v/%q vs %d/%v/%q", seed, step,
						have.WindowSize, have.Converged, haveErr, want.WindowSize, want.Converged, wantErr)
				}
				for i := range want.Metrics {
					if have.Metrics[i].Value != want.Metrics[i].Value || have.Metrics[i].R2 != want.Metrics[i].R2 {
						t.Fatalf("seed %d step %d: metric %d estimate differs: %+v vs %+v",
							seed, step, i, have.Metrics[i], want.Metrics[i])
					}
				}
				if err := s2.Close(); err != nil {
					t.Fatal(err)
				}
			}
			starts := liveStarts(opts.Retain, appended)
			wantSegments(t, dir, "Q13", starts, appended)
			wantRange(t, h, int(core.RetainedBase(uint64(appended), uint64(opts.Retain))), appended)
		}
		if opts.Retain > 0 && appended < 4*opts.Retain {
			t.Fatalf("seed %d: %d appends never trimmed twice", seed, appended)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSyncNeverRewritesWAL: a durability point fsyncs the one file the
// appends already went to — same inode, same bytes, no second encoding
// — and later appends extend it.
func TestSyncNeverRewritesWAL(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	h := openHist(t, s, "Q12")
	appendN(t, h, 0, 8)
	walPath := filepath.Join(dir, "Q12", walName)
	before, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	beforeBytes := wantLayout(t, dir, "Q12", 8)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || !bytes.Equal(beforeBytes, wantLayout(t, dir, "Q12", 8)) {
		t.Fatal("Sync replaced or rewrote wal.log")
	}
	appendN(t, h, 8, 4)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(wantLayout(t, dir, "Q12", 12), beforeBytes) {
		t.Fatal("appends after a Sync did not extend the same log")
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	wantPrefix(t, openHist(t, s2, "Q12"), 12)
}

// TestRecoverySkipsCoveredFrames: a WAL that holds a run of frames
// twice — a replica batch shipped again after its ack was lost, or a
// write retried after a partial one — replays to exactly the history
// that was appended once, and the open leaves the file as it found it.
func TestRecoverySkipsCoveredFrames(t *testing.T) {
	src := t.TempDir()
	s := openStore(t, src, Options{})
	appendN(t, openHist(t, s, "Q12"), 0, 7)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full := wantLayout(t, src, "Q12", 7)
	for _, run := range [][2]int{{2, 5}, {0, 7}, {6, 7}} {
		retried := append(append(slices.Clip(full[:run[1]*testFrameSize]), full[run[0]*testFrameSize:run[1]*testFrameSize]...), full[run[1]*testFrameSize:]...)
		dir := writeShardDir(t, "Q12", map[string][]byte{snapshotName: headerBytes(t, 1, testMetrics), walName: retried})
		for pass := 0; pass < 2; pass++ {
			s2 := openStore(t, dir, Options{})
			wantPrefix(t, openHist(t, s2, "Q12"), 7)
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			if got := readDir(t, filepath.Join(dir, "Q12"))[walName]; !bytes.Equal(got, retried) {
				t.Fatalf("frames %d..%d twice: open %d changed wal.log (%d → %d bytes)", run[0], run[1]-1, pass, len(retried), len(got))
			}
		}
	}
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

// TestNonFiniteFrameIsCorrupt: a CRC-valid frame carrying a NaN or ±Inf
// is corrupt wherever it is read — the torn point of a log's tail, a
// failed open in a closed segment, a refused replica batch — so no
// store ever loads a value History.Append would refuse.
func TestNonFiniteFrameIsCorrupt(t *testing.T) {
	bad := func(seq int, v float64) []byte {
		o := obsAt(seq)
		o.Costs[1] = v
		return appendFrame(nil, uint64(seq), o)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tail := append(append(testFrames(0, 2), bad(2, v)...), testFrames(3, 4)...)
		dir := writeShardDir(t, "Q12", map[string][]byte{walName: tail})
		s := openStore(t, dir, Options{})
		wantPrefix(t, openHist(t, s, "Q12"), 2)
		s.Close()

		dir = writeShardDir(t, "Q12", map[string][]byte{walName: tail, segmentName(4): testFrames(4, 5)})
		s = openStore(t, dir, Options{})
		if _, err := s.OpenHistory("Q12", 1, testMetrics); !errors.Is(err, framelog.ErrCorrupt) {
			t.Errorf("%v in a closed segment: open error %v, want ErrCorrupt", v, err)
		}
		s.Close()

		s = openStore(t, t.TempDir(), Options{})
		if next, err := s.AppendReplicaFrames("Q12", 0, tail, false); !errors.Is(err, framelog.ErrCorrupt) || next != 0 {
			t.Errorf("%v in a replica batch: next %d, error %v; want 0, ErrCorrupt", v, next, err)
		}
		s.Close()
	}
}

// TestCompactedShardRefused: a shard a compacting build wrote — the
// committed fixture: observations 0..5 in snapshot.json, 6..10 in
// wal.log — fails to open with an error that says so, and the failed
// open touches nothing in the directory: not the torn tail of a log it
// would otherwise cut, not a temp file it would otherwise delete.
func TestCompactedShardRefused(t *testing.T) {
	for name, wal := range map[string][]byte{"whole": golden(t, "Q12", walName), "torn": golden(t, "wal-torn.log")} {
		dir := writeShardDir(t, "Q12", map[string][]byte{
			snapshotName: golden(t, "Q12", snapshotName), walName: wal, walName + framelog.TmpSuffix: wal[:10],
		})
		before := readDir(t, filepath.Join(dir, "Q12"))
		s := openStore(t, dir, Options{Retain: testRetain})
		_, err := s.OpenHistory("Q12", 1, testMetrics)
		if err == nil || !strings.Contains(err.Error(), "compacting build") || !strings.Contains(err.Error(), "6 observations") {
			t.Fatalf("%s: opening a compacted shard: %v, want the compacting-build refusal", name, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if after := readDir(t, filepath.Join(dir, "Q12")); !maps.EqualFunc(before, after, bytes.Equal) {
			t.Fatalf("%s: the refused open changed the directory: %d files → %d", name, len(before), len(after))
		}
	}
}

// TestHeaderRejectsGarbage: a snapshot.json that is not a header of the
// requested shape fails the open instead of starting an empty history,
// and the failed open deletes and writes nothing.
func TestHeaderRejectsGarbage(t *testing.T) {
	for name, doc := range map[string]string{
		"not json":     "not json",
		"version":      `{"version":99,"dim":1,"metrics":["time_s","money_usd"]}`,
		"dim":          `{"version":1,"dim":2,"metrics":["time_s","money_usd"]}`,
		"no metrics":   `{"version":1,"dim":1,"metrics":[]}`,
		"metric names": `{"version":1,"dim":1,"metrics":["money_usd","time_s"]}`,
		"observations": `{"version":1,"dim":1,"metrics":["time_s","money_usd"],"observations":[{"x":[1],"costs":[1,1]}]}`,
	} {
		dir := writeShardDir(t, "Q12", map[string][]byte{snapshotName: []byte(doc)})
		s := openStore(t, dir, Options{})
		if _, err := s.OpenHistory("Q12", 1, testMetrics); err == nil {
			t.Errorf("%s: shard with snapshot.json %s opened", name, doc)
		}
		s.Close()
		if files := readDir(t, filepath.Join(dir, "Q12")); len(files) != 1 || string(files[snapshotName]) != doc {
			t.Errorf("%s: the failed open left %d files, snapshot.json %q", name, len(files), files[snapshotName])
		}
	}
}

// TestHeaderMatchesGolden pins the header at the serving shape (five
// features, federation.Metrics) to the bytes every build since the WAL
// became the history has written, so a directory stays readable by the
// build before and after: the writer reproduces the committed file, a
// fresh shard's snapshot.json is it, and the reader takes it back.
func TestHeaderMatchesGolden(t *testing.T) {
	want := golden(t, "served-header.json")
	if got := headerBytes(t, federation.FeatureDim, federation.Metrics); !bytes.Equal(got, want) {
		t.Fatalf("header = %q, want the committed %q", got, want)
	}
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if _, err := s.OpenHistory("Q12", federation.FeatureDim, federation.Metrics); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readDir(t, filepath.Join(dir, "Q12"))[snapshotName]; !bytes.Equal(got, want) {
		t.Fatalf("a fresh shard's snapshot.json = %q, want the committed %q", got, want)
	}
	if found, err := readHeader(filepath.Join(dir, "Q12", snapshotName), federation.FeatureDim, federation.Metrics); !found || err != nil {
		t.Fatalf("reading the committed header back: found %v, err %v", found, err)
	}
}

func TestOpenHistoryShapeMismatch(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	// Shard A: WAL only, as a build that wrote no header left it.
	// Shard B: WAL plus the header every shard gets at creation.
	appendN(t, openHist(t, s, "A"), 0, 3)
	appendN(t, openHist(t, s, "B"), 0, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "A", snapshotName)); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	// A mismatched open must fail loudly, not truncate good records.
	if _, err := s2.OpenHistory("A", 2, testMetrics); err == nil {
		t.Fatal("dim mismatch against WAL accepted")
	}
	if _, err := os.Stat(filepath.Join(dir, "A", snapshotName)); !os.IsNotExist(err) {
		t.Fatalf("failed open wrote a header for the wrong shape: %v", err)
	}
	if _, err := s2.OpenHistory("B", 2, testMetrics); err == nil {
		t.Fatal("dim mismatch against header accepted")
	}
	if _, err := s2.OpenHistory("B", 1, []string{"other", "names"}); err == nil {
		t.Fatal("metric mismatch against header accepted")
	}
	// The failed opens destroyed nothing: correct shapes still recover.
	s3 := openStore(t, dir, Options{})
	defer s3.Close()
	wantPrefix(t, openHist(t, s3, "A"), 3)
	wantPrefix(t, openHist(t, s3, "B"), 3)
	wantLayout(t, dir, "A", 3)
}

func TestFsyncOptionAppends(t *testing.T) {
	eachDurable(t, testFsyncOptionAppends)
}

func testFsyncOptionAppends(t *testing.T, opts Options) {
	dir := t.TempDir()
	s := openStore(t, dir, opts)
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

// TestConcurrentAppendsAndCheckpoints drives appenders against
// back-to-back Syncs under the race detector, then verifies the
// recovered history is identical to the live one — WAL order is memory
// order.
func TestConcurrentAppendsAndCheckpoints(t *testing.T) {
	// Unbounded, and bounded tightly enough that the appenders roll the
	// log and trim the history a dozen times under the checkpointer.
	for _, opts := range []Options{{}, {Retain: testRetain}, {Retain: testRetain, GroupCommit: true}} {
		testConcurrentAppendsAndCheckpoints(t, opts)
	}
}

func testConcurrentAppendsAndCheckpoints(t *testing.T, opts Options) {
	dir := t.TempDir()
	s := openStore(t, dir, opts)
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
				if err := s.Sync(); err != nil {
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
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, opts)
	defer s2.Close()
	h2 := openHist(t, s2, "Q12")
	if h2.Len() != h.Len() || h2.Base() != h.Base() || h.Base() != retainedBase(h.Len(), opts.Retain) {
		t.Fatalf("recovered [%d, %d), live has [%d, %d)", h2.Base(), h2.Len(), h.Base(), h.Len())
	}
	for i := h.Base(); i < h.Len(); i++ {
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

// TestGoldenFixtures pins the WAL frame codec against files written by
// the commit BEFORE the codecs moved onto internal/framelog (its
// histstore.Open → 6 appends → Checkpoint → 5 appends → Close, plus the
// same WAL cut 5 bytes into its last frame): wal.log holds frames
// 6..10. Today's encoder reproduces them byte for byte, and as a
// segment that starts at 6 — a layout a rolling log leaves — they open
// to observations 6..10, the torn copy to 6..9 and cut back to whole
// frames.
func TestGoldenFixtures(t *testing.T) {
	suffix := golden(t, "Q12", walName)
	var frames []byte
	for i := 6; i <= 10; i++ {
		frames = appendFrame(frames, uint64(i), obsAt(i))
	}
	if !bytes.Equal(frames, suffix) {
		t.Fatal("frames 6..10 encode differently from the parent-written fixture")
	}
	seg := segmentName(6)
	for name, tc := range map[string]struct {
		wal []byte
		n   int
	}{"whole": {suffix, 11}, "torn": {golden(t, "wal-torn.log"), 10}} {
		dir := writeShardDir(t, "Q12", map[string][]byte{seg: tc.wal})
		s := openStore(t, dir, Options{})
		wantRange(t, openHist(t, s, "Q12"), 6, tc.n)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := readDir(t, filepath.Join(dir, "Q12"))[seg]; !bytes.Equal(got, suffix[:(tc.n-6)*testFrameSize]) {
			t.Errorf("%s fixture: %s is %d bytes after the open, want frames 6..%d", name, seg, len(got), tc.n-1)
		}
	}
}

// TestReplayAllocBudget: recovery decodes every frame into one scratch
// array and appends it into the history's spare capacity, so opening a
// log allocates per log — files, header, the array's growth steps — and
// not per frame: 9,900 more frames cost at most 99 more allocations.
func TestReplayAllocBudget(t *testing.T) {
	opens := func(n int) float64 {
		dir := t.TempDir()
		s := openStore(t, dir, Options{})
		h, err := s.OpenHistory("Q12", federation.FeatureDim, federation.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := h.Append(benchObs(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			s := openStore(t, dir, Options{})
			h, err := s.OpenHistory("Q12", federation.FeatureDim, federation.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			if h.Len() != n {
				t.Fatalf("replayed %d of %d frames", h.Len(), n)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, large = 100, 10000
	a, b := opens(small), opens(large)
	t.Logf("open: %.0f allocs at %d frames, %.0f at %d", a, small, b, large)
	if budget := float64(large-small) / 100; b-a > budget {
		t.Errorf("%d more frames cost %.0f more allocations, budget %.0f", large-small, b-a, budget)
	}
}
