package histstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// testRetain is the retention bound of the tests that roll and trim:
// small enough that a few dozen appends cross it several times.
const testRetain = 8

// retainedBase is core.RetainedBase over ints.
func retainedBase(n, retain int) int { return int(core.RetainedBase(uint64(n), uint64(retain))) }

// TestOlderLayoutsShedTheirPrefix: what an earlier build left behind —
// one wal.log of any length — opens under a retention bound with the
// history the rule keeps, estimates as the unbounded history does, and
// is down to at most three segment files after twice the bound in
// further appends, wal.log gone. Without a bound the same directory never rolls.
func TestOlderLayoutsShedTheirPrefix(t *testing.T) {
	const n = 50
	single := t.TempDir()
	s := openStore(t, single, Options{})
	appendN(t, openHist(t, s, "Q12"), 0, n)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal := wantLayout(t, single, "Q12", n)
	header, err := os.ReadFile(filepath.Join(single, "Q12", snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewEstimator(core.Config{MMax: testRetain})
	if err != nil {
		t.Fatal(err)
	}
	estimate := func(h *core.History) string {
		e, err := est.EstimateCostValue(h, []float64{7})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(e.WindowSize, e.Values())
	}
	t.Run("single wal.log", func(t *testing.T) {
		dir := writeShardDir(t, "Q12", map[string][]byte{snapshotName: header, walName: wal})
		s := openStore(t, dir, Options{Retain: testRetain})
		h := openHist(t, s, "Q12")
		wantRange(t, h, retainedBase(n, testRetain), n)
		wantSegments(t, dir, "Q12", []uint64{0}, n) // nothing is rewritten to shed it
		ref, err := core.NewHistory(1, testMetrics...)
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, ref, 0, n)
		if got, want := estimate(h), estimate(ref); got != want {
			t.Fatalf("estimate %s, a history that was never stored or bounded gives %s", got, want)
		}
		appendN(t, h, n, 2*testRetain)
		starts, err := listSegments(filepath.Join(dir, "Q12"))
		if err != nil || len(starts) > 3 || starts[0] == 0 {
			t.Fatalf("after %d further appends the segments start at %v", 2*testRetain, starts)
		}
		wantSegments(t, dir, "Q12", liveStarts(testRetain, n+2*testRetain), n+2*testRetain)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Without a bound: the rolled directory opens, from its base,
		// and its newest segment is from then on the only one to grow.
		s = openStore(t, dir, Options{})
		h = openHist(t, s, "Q12")
		wantRange(t, h, int(starts[0]), n+2*testRetain)
		appendN(t, h, h.Len(), 3*testRetain)
		wantRange(t, h, int(starts[0]), n+5*testRetain)
		wantSegments(t, dir, "Q12", starts, n+5*testRetain)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	// Never bounded: one file, byte for byte what it always was.
	s = openStore(t, single, Options{})
	h := openHist(t, s, "Q12")
	appendN(t, h, n, 3*testRetain)
	wantPrefix(t, h, n+3*testRetain)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if grown := wantLayout(t, single, "Q12", n+3*testRetain); !bytes.HasPrefix(grown, wal) {
		t.Fatal("an unbounded store rewrote its wal.log")
	}
}

// TestRollKillPoints drives a roll into each point a crash can stop it
// at, through the store's file seams, and reopens the directory it
// leaves: every one recovers the history suffix an undisturbed store
// holds, and the next rolls bring the directory back to what the rule
// leaves.
func TestRollKillPoints(t *testing.T) {
	const n = 5*testRetain + 3
	reopen := func(t *testing.T, dir string, acked int) {
		t.Helper()
		s := openStore(t, dir, Options{Retain: testRetain})
		defer s.Close()
		h := openHist(t, s, "Q12")
		wantRange(t, h, retainedBase(acked, testRetain), acked)
		appendN(t, h, acked, 2*testRetain)
		wantSegments(t, dir, "Q12", liveStarts(testRetain, acked+2*testRetain), acked+2*testRetain)
	}
	t.Run("new segment created, nothing unlinked", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, dir, Options{Retain: testRetain})
		s.removeSegment = func(string) error { return syscall.EIO }
		h := openHist(t, s, "Q12")
		appendN(t, h, 0, n)
		// A failed unlink costs disk, not the shard.
		wantRange(t, h, retainedBase(n, testRetain), n)
		wantSegments(t, dir, "Q12", []uint64{0, 8, 16, 24, 32, 40}, n)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		reopen(t, dir, n)
	})
	t.Run("between two unlinks", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, dir, Options{Retain: testRetain})
		var allowed atomic.Int32
		s.removeSegment = func(path string) error {
			if allowed.Add(-1) < 0 {
				return syscall.EIO
			}
			return os.Remove(path)
		}
		h := openHist(t, s, "Q12")
		appendN(t, h, 0, 4*testRetain) // 0, 8, 16, 24: three rolls, no unlink
		allowed.Store(1)
		appendN(t, h, 4*testRetain, n-4*testRetain) // the roll to 32 owes three unlinks and gets one
		wantSegments(t, dir, "Q12", []uint64{8, 16, 24, 32, 40}, n)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		reopen(t, dir, n)
	})
	t.Run("newest segment empty", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, dir, Options{Retain: testRetain})
		s.createSegment = func(path string) (walFile, error) {
			f, err := createSegment(path)
			fw := &faultyWAL{walFile: f}
			fw.failWrite.Store(filepath.Base(path) == segmentName(2*testRetain))
			return fw, err
		}
		h := openHist(t, s, "Q12")
		appendN(t, h, 0, 2*testRetain)
		// The roll succeeds, the first write to the new segment tears.
		if err := h.Append(obsAt(2 * testRetain)); err == nil {
			t.Fatal("the injected write fault was swallowed")
		}
		wantRange(t, h, retainedBase(2*testRetain, testRetain), 2*testRetain)
		s.Close()
		if fi, err := os.Stat(filepath.Join(dir, "Q12", segmentName(2*testRetain))); err != nil || fi.Size() == 0 || fi.Size() >= testFrameSize {
			t.Fatalf("newest segment after the torn write: %v, %v", fi, err)
		}
		// The open cuts the torn half-frame and appends to the segment
		// the crashed roll made; the acknowledged prefix is all there.
		s2 := openStore(t, dir, Options{Retain: testRetain})
		wantRange(t, openHist(t, s2, "Q12"), retainedBase(2*testRetain, testRetain), 2*testRetain)
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		wantSegments(t, dir, "Q12", []uint64{8, 16}, 2*testRetain)
		reopen(t, dir, 2*testRetain)
	})
	t.Run("closing fsync rejected", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, dir, Options{Retain: testRetain, Fsync: true})
		h := openHist(t, s, "Q12")
		appendN(t, h, 0, testRetain)
		sh := s.shards["Q12"]
		fw := &faultyWAL{walFile: sh.wal.f}
		fw.failSync.Store(true)
		sh.mu.Lock()
		sh.wal.f = fw
		sh.mu.Unlock()
		// Nothing may be acknowledged out of a segment whose predecessor
		// is not known durable: the roll stops before creating it.
		for i := 0; i < 3; i++ {
			if err := h.Append(obsAt(testRetain)); err == nil {
				t.Fatal("append acknowledged after the closing segment's fsync failed")
			}
		}
		s.Close()
		wantSegments(t, dir, "Q12", []uint64{0}, testRetain)
		reopen(t, dir, testRetain)
	})
	t.Run("segment create rejected", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, dir, Options{Retain: testRetain})
		s.createSegment = func(string) (walFile, error) { return nil, syscall.ENOSPC }
		h := openHist(t, s, "Q12")
		appendN(t, h, 0, testRetain)
		if err := h.Append(obsAt(testRetain)); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("append over a failed roll: %v, want ENOSPC", err)
		}
		if err := s.Sync(); err == nil {
			t.Fatal("Sync succeeded on a shard whose roll failed")
		}
		s.Close()
		reopen(t, dir, testRetain)
	})
}

// TestDamagedClosedSegmentFailsOpen: only the newest segment may end in
// a torn frame. A closed one was whole when the log rolled past it, so a
// bad frame in it, a missing one between two others or a first frame
// that does not follow the previous segment's last is damage: the open
// fails and touches nothing. Removing the damaged segment and everything
// older is the way out — what is left opens as a shorter suffix.
func TestDamagedClosedSegmentFailsOpen(t *testing.T) {
	const n = 3*testRetain + 2
	master := t.TempDir()
	s := openStore(t, master, Options{Retain: testRetain})
	s.removeSegment = func(string) error { return syscall.EIO } // keep all four
	appendN(t, openHist(t, s, "Q12"), 0, n)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range []string{snapshotName, segmentName(0), segmentName(8), segmentName(16), segmentName(24)} {
		raw, err := os.ReadFile(filepath.Join(master, "Q12", name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = raw
	}
	damage := func(edit func(map[string][]byte)) map[string][]byte {
		out := map[string][]byte{}
		for name, raw := range files {
			out[name] = bytes.Clone(raw)
		}
		edit(out)
		return out
	}
	for name, broken := range map[string]map[string][]byte{
		"bit flip in a closed segment": damage(func(f map[string][]byte) { f[segmentName(8)][3*testFrameSize+12] ^= 0xff }),
		"closed segment cut short":     damage(func(f map[string][]byte) { f[segmentName(8)] = f[segmentName(8)][:5*testFrameSize+7] }),
		"closed segment missing":       damage(func(f map[string][]byte) { delete(f, segmentName(8)) }),
		"frames under the wrong name":  damage(func(f map[string][]byte) { f[segmentName(16)] = f[segmentName(24)] }),
	} {
		t.Run(name, func(t *testing.T) {
			dir := writeShardDir(t, "Q12", broken)
			s := openStore(t, dir, Options{Retain: testRetain})
			defer s.Close()
			if _, err := s.OpenHistory("Q12", 1, testMetrics); err == nil {
				t.Fatal("a damaged closed segment opened")
			}
			for name, want := range broken {
				if got, err := os.ReadFile(filepath.Join(dir, "Q12", name)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("the failed open changed %s (err %v)", name, err)
				}
			}
			// The operator's way out: drop the damage and what precedes it.
			for _, start := range []uint64{0, 8} {
				if err := os.Remove(filepath.Join(dir, "Q12", segmentName(start))); err != nil && !os.IsNotExist(err) {
					t.Fatal(err)
				}
			}
			if name == "frames under the wrong name" {
				if err := os.Remove(filepath.Join(dir, "Q12", segmentName(16))); err != nil {
					t.Fatal(err)
				}
				wantRange(t, openHist(t, s, "Q12"), 24, n)
				return
			}
			wantRange(t, openHist(t, s, "Q12"), 16, n)
		})
	}
	// The newest segment is the one that may be torn.
	torn := writeShardDir(t, "Q12", damage(func(f map[string][]byte) { f[segmentName(24)] = f[segmentName(24)][:testFrameSize+9] }))
	s = openStore(t, torn, Options{Retain: testRetain})
	defer s.Close()
	wantRange(t, openHist(t, s, "Q12"), retainedBase(25, testRetain), 25)
	// A name that is not a segment's is not skipped over.
	odd := writeShardDir(t, "Q12", damage(func(f map[string][]byte) { f["wal-16.log"] = f[segmentName(16)] }))
	s = openStore(t, odd, Options{Retain: testRetain})
	defer s.Close()
	if _, err := s.OpenHistory("Q12", 1, testMetrics); err == nil {
		t.Fatal("a wal-*.log file with a malformed name was ignored")
	}
}

// TestSyncCoversClosedSegments: a store that does not fsync per append
// closes a segment without one, so the next durability point owes it
// one — Sync is "everything appended so far", whichever file it went to.
func TestSyncCoversClosedSegments(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{Retain: testRetain})
	defer s.Close()
	h := openHist(t, s, "Q12")
	appendN(t, h, 0, testRetain+1)
	sh := s.shards["Q12"]
	if !sh.wal.closedDirty {
		t.Fatal("a roll without fsync did not leave the closed segment owed one")
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if sh.wal.closedDirty {
		t.Fatal("Sync left the closed segment without its fsync")
	}
	// A durable log's roll pays it at once.
	eachDurable(t, func(t *testing.T, opts Options) {
		opts.Retain = testRetain
		d := openStore(t, t.TempDir(), opts)
		defer d.Close()
		appendN(t, openHist(t, d, "Q12"), 0, testRetain+1)
		if d.shards["Q12"].wal.closedDirty {
			t.Fatal("a durable roll left its closed segment unsynced")
		}
	})
}

// TestRetentionMetrics: the recovery counter counts what a boot read
// back, not the global observation count it resumed at, and the
// retained gauge follows the frames the open shards hold on disk.
func TestRetentionMetrics(t *testing.T) {
	const n = 5*testRetain + 3
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s := openStore(t, dir, Options{Retain: testRetain, Metrics: reg, MetricsStore: "t"})
	h := openHist(t, s, "Q12")
	if got := s.obs.recoveredObs.Value(); got != 0 {
		t.Fatalf("a fresh shard recovered %v observations", got)
	}
	for i := 0; i < n; i++ {
		appendN(t, h, i, 1)
		starts := liveStarts(testRetain, i+1)
		if got, want := s.obs.retainedObs.Value(), float64(i+1-int(starts[0])); got != want {
			t.Fatalf("after %d appends the gauge reads %v, the segments hold %v", i+1, got, want)
		}
	}
	appendN(t, openHist(t, s, "Q13"), 0, 3)
	held := float64(n - 4*testRetain)
	if got := s.obs.retainedObs.Value(); got != held+3 {
		t.Fatalf("two shards: gauge reads %v, want %v", got, held+3)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.obs.retainedObs.Value(); got != 0 {
		t.Fatalf("a closed store still reports %v retained observations", got)
	}
	s = openStore(t, dir, Options{Retain: testRetain, Metrics: reg, MetricsStore: "t"})
	defer s.Close()
	wantRange(t, openHist(t, s, "Q12"), retainedBase(n, testRetain), n)
	if got := s.obs.recoveredObs.Value(); got != held {
		t.Fatalf("reopening %d observations of which %v are on disk counted %v recovered", n, held, got)
	}
	if got := s.obs.retainedObs.Value(); got != held {
		t.Fatalf("after the reopen the gauge reads %v, want %v", got, held)
	}
}
