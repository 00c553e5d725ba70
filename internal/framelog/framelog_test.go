package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

var modes = map[string]Mode{"TruncateTornTail": TruncateTornTail, "Strict": Strict}

// testLog frames n payloads of varying length and returns the log and
// each frame's start offset (plus the end offset as the last entry).
func testLog(n int) (log []byte, bounds []int64, payloads [][]byte) {
	for i := 0; i < n; i++ {
		p := bytes.Repeat([]byte{byte('a' + i)}, 3+7*i)
		bounds = append(bounds, int64(len(log)))
		log = Append(log, p)
		payloads = append(payloads, p)
	}
	return log, append(bounds, int64(len(log))), payloads
}

// scanAll runs Scan over data and returns the payloads it delivered.
func scanAll(data []byte, maxPayload int, mode Mode) (got [][]byte, end int64, err error) {
	end, err = Scan(bytes.NewReader(data), maxPayload, mode, func(off int64, p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	return got, end, err
}

func TestEncodersAgreeAndRoundTrip(t *testing.T) {
	log, bounds, payloads := testLog(5)
	// Begin/Finish on a caller buffer is Append, byte for byte.
	var inPlace []byte
	for _, p := range payloads {
		var at int
		inPlace, at = Begin(inPlace)
		inPlace = Finish(append(inPlace, p...), at)
	}
	if !bytes.Equal(inPlace, log) {
		t.Fatal("Begin/Finish and Append disagree")
	}
	// The layout is the documented one: len LE, CRC-32C LE, payload.
	if n := binary.LittleEndian.Uint32(log); int(n) != len(payloads[0]) {
		t.Fatalf("length field = %d, want %d", n, len(payloads[0]))
	}
	if !bytes.Equal(log[HeaderSize:bounds[1]], payloads[0]) {
		t.Fatal("payload does not follow the header")
	}
	for name, mode := range modes {
		var offs []int64
		end, err := Scan(bytes.NewReader(log), 1<<10, mode, func(off int64, p []byte) error {
			if !bytes.Equal(p, payloads[len(offs)]) {
				t.Errorf("%s: frame %d payload mismatch", name, len(offs))
			}
			offs = append(offs, off)
			return nil
		})
		if err != nil || end != int64(len(log)) || len(offs) != len(payloads) {
			t.Fatalf("%s: end=%d err=%v frames=%d", name, end, err, len(offs))
		}
		for i, off := range offs {
			if off != bounds[i] {
				t.Errorf("%s: frame %d reported at %d, want %d", name, i, off, bounds[i])
			}
		}
	}
	// A warmed buffer encodes without allocating.
	buf := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(100, func() {
		b, at := Begin(buf[:0])
		buf = Finish(append(b, payloads[2]...), at)
	}); allocs != 0 {
		t.Fatalf("in-place encode allocated %.0f times", allocs)
	}
}

// TestPrefixCutsOnFrameBoundaries: for every byte budget and every cut of
// the log, Prefix stops on a frame boundary, takes as many whole frames
// as fit and never fewer than one — and cutting a log with it loses and
// repeats nothing.
func TestPrefixCutsOnFrameBoundaries(t *testing.T) {
	log, bounds, _ := testLog(6)
	for max := 0; max <= len(log)+1; max++ {
		for cut := 0; cut <= len(log); cut++ {
			n, frames := Prefix(log[:cut], max)
			want := 0
			for want+1 < len(bounds) && bounds[want+1] <= int64(cut) && (want == 0 || bounds[want+1] <= int64(max)) {
				want++
			}
			if frames != want || int64(n) != bounds[want] {
				t.Fatalf("Prefix(log[:%d], %d) = %d bytes, %d frames; want %d, %d", cut, max, n, frames, bounds[want], want)
			}
		}
		var got []byte
		for rest := log; len(rest) > 0; {
			n, _ := Prefix(rest, max)
			got, rest = append(got, rest[:n]...), rest[n:]
		}
		if !bytes.Equal(got, log) {
			t.Fatalf("max=%d: the batches do not add up to the log", max)
		}
	}
	// A length word that promises more than the machine could hold.
	if n, frames := Prefix([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1}, 1<<30); n != 0 || frames != 0 {
		t.Fatalf("forged length: %d bytes, %d frames", n, frames)
	}
}

// TestTornTailEveryByteOffset cuts the log at every byte: the valid
// prefix is always the frames wholly before the cut, TruncateTornTail
// forgives the rest and Strict refuses it.
func TestTornTailEveryByteOffset(t *testing.T) {
	log, bounds, _ := testLog(4)
	for cut := 0; cut <= len(log); cut++ {
		whole := 0
		for whole+1 < len(bounds) && bounds[whole+1] <= int64(cut) {
			whole++
		}
		clean := bounds[whole] == int64(cut)
		got, end, err := scanAll(log[:cut], 1<<10, TruncateTornTail)
		if err != nil || end != bounds[whole] || len(got) != whole {
			t.Fatalf("cut %d: torn-tail scan end=%d err=%v frames=%d, want end=%d frames=%d",
				cut, end, err, len(got), bounds[whole], whole)
		}
		got, end, err = scanAll(log[:cut], 1<<10, Strict)
		if end != bounds[whole] || len(got) != whole {
			t.Fatalf("cut %d: strict scan end=%d frames=%d", cut, end, len(got))
		}
		if clean != (err == nil) || (!clean && !errors.Is(err, ErrCorrupt)) {
			t.Fatalf("cut %d: strict scan err=%v, clean cut=%v", cut, err, clean)
		}
	}
}

// TestMidFrameCorruption flips every byte of a middle frame in turn —
// length, CRC and payload: the scan ends at that frame's start, later
// intact frames notwithstanding.
func TestMidFrameCorruption(t *testing.T) {
	log, bounds, _ := testLog(4)
	for at := bounds[2]; at < bounds[3]; at++ {
		bad := append([]byte(nil), log...)
		bad[at] ^= 0xff
		for name, mode := range modes {
			got, end, err := scanAll(bad, 1<<10, mode)
			if end != bounds[2] || len(got) != 2 {
				t.Fatalf("%s: byte %d flipped: end=%d frames=%d, want end=%d frames=2", name, at, end, len(got), bounds[2])
			}
			if (mode == Strict) != errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: byte %d flipped: err=%v", name, at, err)
			}
		}
	}
}

func TestBoundsAndCallbackVerdicts(t *testing.T) {
	log, bounds, _ := testLog(3)
	// A frame above the caller's bound (frame 1 holds 10 bytes) is
	// corrupt, not a big record; so is a zero length.
	if got, end, err := scanAll(log, 5, TruncateTornTail); err != nil || end != bounds[1] || len(got) != 1 {
		t.Fatalf("bounded scan: end=%d err=%v frames=%d", end, err, len(got))
	}
	if _, end, err := scanAll(make([]byte, 64), 1<<10, TruncateTornTail); err != nil || end != 0 {
		t.Fatalf("zero-filled log: end=%d err=%v", end, err)
	}
	if _, _, err := scanAll(make([]byte, 64), 1<<10, Strict); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero-length frame under Strict: %v", err)
	}
	// fn's ErrCorrupt marks the torn point; any other error aborts and
	// is returned as it is, in both modes.
	boom := errors.New("boom")
	for name, mode := range modes {
		for _, verdict := range []error{ErrCorrupt, boom} {
			n := 0
			end, err := Scan(bytes.NewReader(log), 1<<10, mode, func(int64, []byte) error {
				if n++; n == 2 {
					return verdict
				}
				return nil
			})
			want := verdict
			if mode == TruncateTornTail && verdict == ErrCorrupt {
				want = nil
			}
			if end != bounds[1] || err != want {
				t.Fatalf("%s/%v: end=%d err=%v, want end=%d err=%v", name, verdict, end, err, bounds[1], want)
			}
		}
	}
}

// failingReader fails with a non-EOF error after its data runs out.
type failingReader struct{ data []byte }

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, os.ErrClosed
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestReaderFailureIsNotCorruption(t *testing.T) {
	log, bounds, _ := testLog(2)
	for _, cut := range []int{len(log), len(log) - 2, int(bounds[1]) + 3} {
		end, err := Scan(&failingReader{data: log[:cut]}, 1<<10, TruncateTornTail, func(int64, []byte) error { return nil })
		if !errors.Is(err, os.ErrClosed) {
			t.Fatalf("cut %d: reader failure reported as end=%d err=%v", cut, end, err)
		}
	}
}

// TestForgedLengthCostsNoMemory is the allocation-on-untrusted-length
// bug: a 12-byte body whose header declares 1 GiB must not make the
// scanner allocate 1 GiB before a single payload byte arrives.
func TestForgedLengthCostsNoMemory(t *testing.T) {
	body := binary.LittleEndian.AppendUint32(nil, 1<<30)
	body = append(body, 0, 0, 0, 0, 'x', 'y', 'z', 'w')
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Scan(bytes.NewReader(body), 1<<30, Strict, func(int64, []byte) error { return nil })
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged 1 GiB frame: err=%v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
		t.Fatalf("forged 1 GiB header allocated %d bytes", grew)
	}
}

// TestLargePayloadGrowsWithInput drives the grow-as-received path with
// a real payload above the trusted allocation.
func TestLargePayloadGrowsWithInput(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), (3<<20)/16+1)
	log := Append(Append(nil, big), []byte("tail"))
	got, end, err := scanAll(log, 1<<30, Strict)
	if err != nil || end != int64(len(log)) || len(got) != 2 || !bytes.Equal(got[0], big) || string(got[1]) != "tail" {
		t.Fatalf("large frame: end=%d err=%v frames=%d", end, err, len(got))
	}
	if _, end, err := scanAll(log[:len(log)/2], 1<<30, TruncateTornTail); err != nil || end != 0 {
		t.Fatalf("half a large frame: end=%d err=%v", end, err)
	}
}

func TestOpenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	log, bounds, payloads := testLog(3)
	if err := os.WriteFile(path, log[:len(log)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	count := func(n *int) func(int64, []byte) error {
		return func(int64, []byte) error { *n++; return nil }
	}
	var n int
	f, end, torn, err := OpenAppend(path, 1<<10, count(&n))
	if err != nil || !torn || end != bounds[2] || n != 2 {
		t.Fatalf("open over a torn tail: end=%d torn=%v n=%d err=%v", end, torn, n, err)
	}
	// The handle sits on the frame boundary: an append extends the log.
	if _, err := f.Write(Append(nil, payloads[2])); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if raw, _ := os.ReadFile(path); !bytes.Equal(raw, log) {
		t.Fatal("append after a torn-tail open did not restore the log")
	}
	n = 0
	f, end, torn, err = OpenAppend(path, 1<<10, count(&n))
	if err != nil || torn || end != int64(len(log)) || n != 3 {
		t.Fatalf("clean reopen: end=%d torn=%v n=%d err=%v", end, torn, n, err)
	}
	f.Close()
	// A callback rejection (not corruption) fails the open and leaves
	// the file alone.
	boom := errors.New("boom")
	if _, _, _, err := OpenAppend(path, 1<<10, func(int64, []byte) error { return boom }); err != boom {
		t.Fatalf("rejecting callback: err=%v", err)
	}
	if raw, _ := os.ReadFile(path); !bytes.Equal(raw, log) {
		t.Fatal("a failed open modified the log")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "file")
	write := func(s string, fail error) error {
		return WriteFileAtomic(path, func(w io.Writer) error {
			if _, err := io.WriteString(w, s); err != nil {
				return err
			}
			return fail
		})
	}
	if err := write("one", nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := write("two, half-writ", boom); err != boom {
		t.Fatalf("failed write: err=%v", err)
	}
	if raw, _ := os.ReadFile(path); string(raw) != "one" {
		t.Fatalf("failed write replaced the file with %q", raw)
	}
	if _, err := os.Stat(path + TmpSuffix); !os.IsNotExist(err) {
		t.Fatalf("failed write left its temp file behind: %v", err)
	}
	if err := write("two", nil); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(path); string(raw) != "two" {
		t.Fatalf("file = %q, want the second write", raw)
	}
}

// TestWriteFileAtomicSyncsDirectory drives the directory fsync through
// its seam: exactly one call per successful write, after the rename and
// on the file's own directory; its failure is the write's failure (the
// complete new file stays); a write that never renamed never syncs.
func TestWriteFileAtomicSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "file")
	real := syncDir
	defer func() { syncDir = real }()
	var calls []string
	var fail error
	syncDir = func(d string) error {
		calls = append(calls, d)
		if raw, _ := os.ReadFile(path); string(raw) != "new" {
			t.Errorf("directory synced before the rename: file = %q", raw)
		}
		if _, err := os.Stat(path + TmpSuffix); !os.IsNotExist(err) {
			t.Errorf("directory synced with the temp file still present: %v", err)
		}
		if fail != nil {
			return fail
		}
		return real(d)
	}
	write := func(p, s string, werr error) error {
		return WriteFileAtomic(p, func(w io.Writer) error {
			if _, err := io.WriteString(w, s); err != nil {
				return err
			}
			return werr
		})
	}

	if err := write(path, "new", nil); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0] != dir {
		t.Fatalf("directory syncs after one write = %q, want [%q]", calls, dir)
	}

	fail = errors.New("dir fsync: EIO")
	if err := write(path, "new", nil); err != fail {
		t.Fatalf("failing directory sync: err = %v, want %v", err, fail)
	}
	if raw, _ := os.ReadFile(path); string(raw) != "new" {
		t.Fatalf("file after a failed directory sync = %q, want the complete new content", raw)
	}

	calls = nil
	if err := write(path, "half", errors.New("boom")); err == nil {
		t.Fatal("failed content write reported success")
	}
	// Renaming a file over a non-empty directory fails.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := write(blocked, "new", nil); err == nil {
		t.Fatal("rename over a non-empty directory reported success")
	}
	if len(calls) != 0 {
		t.Fatalf("directory synced %d times for writes that never renamed", len(calls))
	}
}

// FuzzScan: arbitrary bytes never panic the scanner, never make it
// hold more than maxPayload (+ what actually arrived), both modes agree
// on the valid prefix, and Scan(Append(x)) == x.
func FuzzScan(f *testing.F) {
	log, _, _ := testLog(3)
	f.Add(log, uint16(64))
	f.Add(log[:len(log)-1], uint16(64))
	f.Add(log, uint16(4))
	f.Add([]byte{}, uint16(0))
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<30), uint16(1024))
	f.Fuzz(func(t *testing.T, data []byte, bound uint16) {
		maxPayload := int(bound)
		var ends [2]int64
		for i, mode := range []Mode{TruncateTornTail, Strict} {
			end, err := Scan(bytes.NewReader(data), maxPayload, mode, func(off int64, p []byte) error {
				if len(p) == 0 || len(p) > maxPayload || cap(p) > maxPayload+len(data) {
					t.Fatalf("payload len=%d cap=%d under bound %d from %d bytes", len(p), cap(p), maxPayload, len(data))
				}
				if want := data[off+HeaderSize:][:len(p)]; !bytes.Equal(p, want) {
					t.Fatalf("payload at %d does not match the input", off)
				}
				return nil
			})
			if end < 0 || end > int64(len(data)) {
				t.Fatalf("end=%d of %d", end, len(data))
			}
			if mode == TruncateTornTail && err != nil {
				t.Fatalf("torn-tail scan of a byte slice failed: %v", err)
			}
			if mode == Strict && (err == nil) != (end == int64(len(data))) {
				t.Fatalf("strict scan: end=%d of %d, err=%v", end, len(data), err)
			}
			ends[i] = end
		}
		if ends[0] != ends[1] {
			t.Fatalf("modes disagree on the valid prefix: %d vs %d", ends[0], ends[1])
		}
		// In memory, the same decoder hands out views: the same frames,
		// the same end and the same error as through a reader.
		for _, mode := range []Mode{TruncateTornTail, Strict} {
			var viaReader, inMemory []int64
			rEnd, rErr := Scan(bytes.NewReader(data), maxPayload, mode, func(off int64, p []byte) error {
				viaReader = append(viaReader, off)
				return nil
			})
			mEnd, mErr := ScanBytes(data, maxPayload, mode, func(off int64, p []byte) error {
				if len(p) > 0 && &p[0] != &data[off+HeaderSize] {
					t.Fatalf("payload at %d is a copy, not a view", off)
				}
				inMemory = append(inMemory, off)
				return nil
			})
			if rEnd != mEnd || !slices.Equal(viaReader, inMemory) || fmt.Sprint(rErr) != fmt.Sprint(mErr) {
				t.Fatalf("mode %d: Scan ends at %d after %v (%v), ScanBytes at %d after %v (%v)",
					mode, rEnd, viaReader, rErr, mEnd, inMemory, mErr)
			}
		}
		if len(data) > 0 {
			got, end, err := scanAll(Append(nil, data), len(data), Strict)
			if err != nil || end != int64(HeaderSize+len(data)) || len(got) != 1 || !bytes.Equal(got[0], data) {
				t.Fatalf("Scan(Append(x)) != x: end=%d err=%v frames=%d", end, err, len(got))
			}
		}
	})
}
