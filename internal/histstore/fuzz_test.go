package histstore

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/framelog"
)

// FuzzReplay feeds arbitrary bytes to a shard open as its wal.log, with
// and without a header beside it. Whatever the bytes: no panic, no
// allocation beyond one frame bound plus a multiple of the bytes read,
// an open that fails leaves the log alone, and one that succeeds
// recovers exactly the contiguous 0..k-1 run of frames the surviving
// log holds — a fixed point of a second open.
func FuzzReplay(f *testing.F) {
	var whole, gap, wrongDim []byte
	for i := 0; i < 4; i++ {
		whole = appendFrame(whole, uint64(i), obsAt(i))
	}
	gap = appendFrame(append(gap, whole[:testFrameSize]...), 2, obsAt(2))
	wrongDim = appendFrame(wrongDim, 0, core.Observation{X: []float64{1, 2}, Costs: []float64{3, 4}})
	for _, seed := range [][]byte{nil, whole, whole[:len(whole)-5], append(whole[:2*testFrameSize:2*testFrameSize], whole...), gap, wrongDim,
		{0xff, 0xff, 0x0f, 0x00, 1, 2, 3, 4, 5}, make([]byte, 64)} {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	var header bytes.Buffer
	empty, err := core.NewHistory(1, testMetrics...)
	if err != nil {
		f.Fatal(err)
	}
	if err := core.SaveSnapshot(empty.Snapshot(), &header); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, wal []byte, withHeader bool) {
		files := map[string][]byte{walName: wal}
		if withHeader {
			files[snapshotName] = header.Bytes()
		}
		dir := installShard(t, "Q12", files)
		shard := filepath.Join(dir, "Q12")
		open := func() (*core.History, func(), error) {
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			h, err := s.OpenHistory("Q12", 1, testMetrics)
			return h, func() { s.Close() }, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, closeStore, err := open()
		runtime.ReadMemStats(&after)
		closeStore()
		// A forged length field costs at most one frame bound of memory,
		// however little data follows it.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(maxFramePayload+32*len(wal)+128<<10); grew > limit {
			t.Fatalf("opening a %d-byte log allocated %d bytes, want ≤ %d", len(wal), grew, limit)
		}
		survived, rerr := os.ReadFile(filepath.Join(shard, walName))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			// A CRC-valid frame that cannot be applied (a sequence gap,
			// the wrong shape) is not a torn tail: nothing is cut.
			if !bytes.Equal(survived, wal) {
				t.Fatalf("failed open (%v) rewrote wal.log: %d → %d bytes", err, len(wal), len(survived))
			}
			return
		}
		if !bytes.HasPrefix(wal, survived) {
			t.Fatalf("surviving wal.log (%d bytes) is not a prefix of the input (%d bytes)", len(survived), len(wal))
		}
		// The surviving log is whole frames, each a duplicate of or the
		// successor to what precedes it, and the history is exactly
		// their first occurrences.
		next := uint64(0)
		end, err := framelog.Scan(bytes.NewReader(survived), maxFramePayload, framelog.Strict, func(_ int64, p []byte) error {
			seq, o, err := decodePayload(p)
			if err != nil || seq > next {
				t.Fatalf("surviving frame seq %d after %d observations (err %v)", seq, next, err)
			}
			if seq == next {
				if got := h.At(int(seq)); !sameBits(got, o) {
					t.Fatalf("observation %d = %+v, log holds %+v", seq, got, o)
				}
				next++
			}
			return nil
		})
		if err != nil || end != int64(len(survived)) || int(next) != h.Len() {
			t.Fatalf("surviving log scans to %d of %d bytes, %d observations vs %d recovered (err %v)",
				end, len(survived), next, h.Len(), err)
		}
		h2, closeStore, err := open()
		closeStore()
		if err != nil || h2.Len() != h.Len() {
			t.Fatalf("second open: %d observations (err %v), first had %d", h2.Len(), err, h.Len())
		}
		for i := 0; i < h.Len(); i++ {
			if !sameBits(h.At(i), h2.At(i)) {
				t.Fatalf("second open: observation %d differs", i)
			}
		}
		if again, err := os.ReadFile(filepath.Join(shard, walName)); err != nil || !bytes.Equal(again, survived) {
			t.Fatalf("second open changed wal.log (err %v)", err)
		}
	})
}

// sameBits compares two observations bit pattern by bit pattern (a
// fuzzed payload may hold NaNs, which == would call unequal).
func sameBits(a, b core.Observation) bool {
	return bytes.Equal(appendFrame(nil, 0, a), appendFrame(nil, 0, b))
}
