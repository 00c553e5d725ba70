package histstore

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/framelog"
)

// FuzzReplay feeds arbitrary bytes to a shard open as its WAL — whole
// as wal.log or, with a non-zero split, cut in two at that byte with
// the rest as one later segment — with and without a header beside it.
// Whatever the bytes: no panic, no allocation beyond one frame bound
// plus a multiple of the bytes read, an open that fails leaves every
// file alone, and one that succeeds leaves the closed segment alone,
// cuts the newest to a prefix and recovers exactly the contiguous
// 0..k-1 run of frames the surviving files hold between them — never a
// history with a hole or a non-finite value, and a fixed point of a
// second open.
func FuzzReplay(f *testing.F) {
	var whole, gap, wrongDim []byte
	for i := 0; i < 4; i++ {
		whole = appendFrame(whole, uint64(i), obsAt(i))
	}
	gap = appendFrame(append(gap, whole[:testFrameSize]...), 2, obsAt(2))
	wrongDim = appendFrame(wrongDim, 0, core.Observation{X: []float64{1, 2}, Costs: []float64{3, 4}})
	nan := appendFrame(append([]byte(nil), whole[:2*testFrameSize]...), 2, core.Observation{X: []float64{2}, Costs: []float64{math.NaN(), 6}})
	nan = appendFrame(nan, 3, obsAt(3))
	for _, seed := range [][]byte{nil, whole, whole[:len(whole)-5], append(whole[:2*testFrameSize:2*testFrameSize], whole...), gap, wrongDim,
		{0xff, 0xff, 0x0f, 0x00, 1, 2, 3, 4, 5}, make([]byte, 64), nan} {
		for _, split := range []uint16{0, 1, testFrameSize, 2 * testFrameSize, 2*testFrameSize + 3} {
			f.Add(seed, true, split)
			f.Add(seed, false, split)
		}
	}
	header := headerBytes(f, 1, testMetrics)
	f.Fuzz(func(t *testing.T, wal []byte, withHeader bool, split uint16) {
		// The segments, oldest first. The later one is named for the
		// frame count a log cut at a frame boundary would have rolled at.
		type segment struct {
			name  string
			input []byte
		}
		segs := []segment{{walName, wal}}
		if cut := int(split) % (len(wal) + 1); cut > 0 {
			segs = []segment{{walName, wal[:cut]}, {segmentName(uint64(max(cut/testFrameSize, 1))), wal[cut:]}}
		}
		files := map[string][]byte{}
		for _, seg := range segs {
			files[seg.name] = seg.input
		}
		if withHeader {
			files[snapshotName] = header
		}
		dir := writeShardDir(t, "Q12", files)
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
		// A forged length field costs at most one frame bound of memory
		// per file, however little data follows it.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(segs)*maxFramePayload+32*len(wal)+128<<10); grew > limit {
			t.Fatalf("opening a %d-byte log allocated %d bytes, want ≤ %d", len(wal), grew, limit)
		}
		survived := make([][]byte, len(segs))
		for i, seg := range segs {
			var rerr error
			if survived[i], rerr = os.ReadFile(filepath.Join(shard, seg.name)); rerr != nil {
				t.Fatal(rerr)
			}
			// A CRC-valid frame that cannot be applied (a sequence gap,
			// the wrong shape) is not a torn tail, and a closed segment
			// has no tail to forgive: only the newest segment of a log
			// that opened is ever cut.
			if (err != nil || i < len(segs)-1) && !bytes.Equal(survived[i], seg.input) {
				t.Fatalf("open (err %v) rewrote %s: %d → %d bytes", err, seg.name, len(seg.input), len(survived[i]))
			}
			if !bytes.HasPrefix(seg.input, survived[i]) {
				t.Fatalf("surviving %s (%d bytes) is not a prefix of the input (%d bytes)", seg.name, len(survived[i]), len(seg.input))
			}
		}
		if err != nil {
			return
		}
		// The surviving files are whole frames, each a duplicate of or
		// the successor to what precedes it, and the history is exactly
		// their first occurrences.
		next := uint64(0)
		var scratch []float64
		for i, seg := range segs {
			end, err := framelog.Scan(bytes.NewReader(survived[i]), maxFramePayload, framelog.Strict, func(_ int64, p []byte) error {
				seq, o, err := decodePayload(p, &scratch)
				if err != nil || seq > next {
					t.Fatalf("surviving frame seq %d in %s after %d observations (err %v)", seq, seg.name, next, err)
				}
				if seq == next {
					if got := h.At(int(seq)); !sameBits(got, o) {
						t.Fatalf("observation %d = %+v, log holds %+v", seq, got, o)
					}
					next++
				}
				return nil
			})
			if err != nil || end != int64(len(survived[i])) {
				t.Fatalf("surviving %s scans to %d of %d bytes (err %v)", seg.name, end, len(survived[i]), err)
			}
		}
		if int(next) != h.Len() || h.Base() != 0 {
			t.Fatalf("the files hold %d observations, the history [%d, %d)", next, h.Base(), h.Len())
		}
		for i := 0; i < h.Len(); i++ {
			o := h.At(i)
			for _, v := range append(append([]float64(nil), o.X...), o.Costs...) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("observation %d = %+v was loaded", i, o)
				}
			}
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
		for i, seg := range segs {
			if again, err := os.ReadFile(filepath.Join(shard, seg.name)); err != nil || !bytes.Equal(again, survived[i]) {
				t.Fatalf("second open changed %s (err %v)", seg.name, err)
			}
		}
	})
}

// sameBits compares two observations bit pattern by bit pattern (a
// fuzzed payload may hold NaNs, which == would call unequal).
func sameBits(a, b core.Observation) bool {
	return bytes.Equal(appendFrame(nil, 0, a), appendFrame(nil, 0, b))
}
