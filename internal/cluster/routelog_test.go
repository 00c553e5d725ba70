package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/framelog"
)

func TestRouteLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "routes.wal")
	l, err := OpenRouteLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if epoch, _ := l.Last(); epoch != 0 {
		t.Fatalf("fresh log epoch = %d, want 0", epoch)
	}
	if err := l.Append(3, map[string]string{"alpha": "b"}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Append(5, map[string]string{"alpha": "b", "beta": "c"}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, err := OpenRouteLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	epoch, overrides := l2.Last()
	if epoch != 5 {
		t.Fatalf("recovered epoch = %d, want 5", epoch)
	}
	if overrides["alpha"] != "b" || overrides["beta"] != "c" || len(overrides) != 2 {
		t.Fatalf("recovered overrides = %v", overrides)
	}
}

func TestRouteLogMonotonicEpochs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "routes.wal")
	l, err := OpenRouteLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	if err := l.Append(7, map[string]string{"alpha": "b"}); err != nil {
		t.Fatalf("append: %v", err)
	}
	// Stale and equal epochs are silently skipped: the newest committed
	// table must not be clobbered by a lagging concurrent persist.
	if err := l.Append(6, map[string]string{"alpha": "z"}); err != nil {
		t.Fatalf("stale append: %v", err)
	}
	if err := l.Append(7, map[string]string{"alpha": "z"}); err != nil {
		t.Fatalf("equal append: %v", err)
	}
	epoch, overrides := l.Last()
	if epoch != 7 || overrides["alpha"] != "b" {
		t.Fatalf("got epoch %d overrides %v, want 7/{alpha:b}", epoch, overrides)
	}
}

// goldenRouteLog is testdata/routes.wal: written by the commit before
// the route log moved onto internal/framelog, by appending epoch 2
// {fed-a:n2}, epoch 3 {fed-a:n2, fed-b:n3} and epoch 5 {fed-b:n1}.
func goldenRouteLog(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "routes.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// openRouteLogBytes opens a route log holding exactly raw.
func openRouteLogBytes(t *testing.T, raw []byte) (*RouteLog, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "routes.wal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenRouteLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l, path
}

// TestRouteLogGolden: today's decoder reads the parent-written log and
// today's encoder reproduces it byte for byte.
func TestRouteLogGolden(t *testing.T) {
	golden := goldenRouteLog(t)
	l, _ := openRouteLogBytes(t, golden)
	epoch, overrides := l.Last()
	l.Close()
	if epoch != 5 || len(overrides) != 1 || overrides["fed-b"] != "n1" {
		t.Fatalf("golden log recovered epoch %d overrides %v, want 5/{fed-b:n1}", epoch, overrides)
	}
	l, path := openRouteLogBytes(t, nil)
	for _, rec := range []routeRecord{
		{2, map[string]string{"fed-a": "n2"}},
		{3, map[string]string{"fed-a": "n2", "fed-b": "n3"}},
		{5, map[string]string{"fed-b": "n1"}},
	} {
		if err := l.Append(rec.Epoch, rec.Overrides); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if got, _ := os.ReadFile(path); !bytes.Equal(got, golden) {
		t.Fatal("re-encoded route log differs from the parent-written fixture")
	}
}

// TestRouteLogTornTailTruncated is the route log's torn-tail policy
// (the framing property itself is framelog's): a record cut mid-frame is
// discarded, the table before it surfaces, and the log keeps working.
func TestRouteLogTornTailTruncated(t *testing.T) {
	golden := goldenRouteLog(t)
	l, path := openRouteLogBytes(t, golden[:len(golden)-5])
	if epoch, overrides := l.Last(); epoch != 3 || overrides["fed-b"] != "n3" {
		t.Fatalf("after torn tail: epoch %d overrides %v, want 3/{fed-a:n2 fed-b:n3}", epoch, overrides)
	}
	if err := l.Append(9, map[string]string{"alpha": "d"}); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l2, err := OpenRouteLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if epoch, overrides := l2.Last(); epoch != 9 || overrides["alpha"] != "d" {
		t.Fatalf("final state: epoch %d overrides %v, want 9/{alpha:d}", epoch, overrides)
	}
}

// TestRouteLogCorruptPayloadTruncated is the route log's own corruption
// rule: a frame that passes its CRC but does not hold a JSON record is
// the torn point, exactly like a CRC failure.
func TestRouteLogCorruptPayloadTruncated(t *testing.T) {
	golden := goldenRouteLog(t)
	junk := framelog.Append(nil, []byte("not a route record"))
	l, path := openRouteLogBytes(t, append(append(junk[:0:0], golden...), junk...))
	defer l.Close()
	if epoch, _ := l.Last(); epoch != 5 {
		t.Fatalf("after an undecodable frame: epoch %d, want 5", epoch)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(golden)) {
		t.Fatalf("log not cut back to its valid prefix: %v (err %v), want %d bytes", fi, err, len(golden))
	}
}

func TestRouteLogCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "routes.wal")
	l, err := OpenRouteLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Enough appends to blow past the compaction threshold several times.
	overrides := map[string]string{}
	for i := 0; i < 26; i++ {
		overrides[string(rune('a'+i))+"-federation-with-a-reasonably-long-name"] = "member-b"
	}
	var epoch uint64
	for i := 0; i < 200; i++ {
		epoch = uint64(i + 1)
		if err := l.Append(epoch, overrides); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if fi.Size() > routeLogCompactBytes {
		t.Fatalf("log size %d exceeds compaction bound %d", fi.Size(), routeLogCompactBytes)
	}
	l2, err := OpenRouteLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	gotEpoch, gotOverrides := l2.Last()
	if gotEpoch != epoch {
		t.Fatalf("recovered epoch %d, want %d", gotEpoch, epoch)
	}
	if len(gotOverrides) != len(overrides) {
		t.Fatalf("recovered %d overrides, want %d", len(gotOverrides), len(overrides))
	}
}

func TestRouteLogAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "routes.wal")
	l, err := OpenRouteLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := l.Append(1, nil); err == nil {
		t.Fatal("append after close succeeded, want error")
	}
}
