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
	if err := l.Commit(3, map[string]string{"alpha": "b"}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := l.Commit(5, map[string]string{"alpha": "b", "beta": "c"}); err != nil {
		t.Fatalf("commit: %v", err)
	}

	epoch, overrides := reopen(t, path).Last()
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
	if err := l.Commit(7, map[string]string{"alpha": "b"}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	// Stale and equal epochs are silently skipped: the newest committed
	// table must not be clobbered by a lagging concurrent persist.
	if err := l.Commit(6, map[string]string{"alpha": "z"}); err != nil {
		t.Fatalf("stale commit: %v", err)
	}
	if err := l.Commit(7, map[string]string{"alpha": "z"}); err != nil {
		t.Fatalf("equal commit: %v", err)
	}
	for _, l := range []*RouteLog{l, reopen(t, path)} {
		if epoch, overrides := l.Last(); epoch != 7 || overrides["alpha"] != "b" {
			t.Fatalf("got epoch %d overrides %v, want 7/{alpha:b}", epoch, overrides)
		}
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

// reopen opens the route log at path again, as a restart does.
func reopen(t *testing.T, path string) *RouteLog {
	t.Helper()
	l, err := OpenRouteLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return l
}

// lastFrame returns the final intact frame of raw, whole.
func lastFrame(t *testing.T, raw []byte) []byte {
	t.Helper()
	var last int64
	end, err := framelog.Scan(bytes.NewReader(raw), maxRoutePayload, framelog.TruncateTornTail, func(off int64, _ []byte) error {
		last = off
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw[last:end]
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

// TestRouteLogGolden: today's decoder reads the multi-frame log an
// appending build wrote, and today's encoder reproduces that log's last
// frame byte for byte — the whole file, since a commit replaces it.
func TestRouteLogGolden(t *testing.T) {
	golden := goldenRouteLog(t)
	l, _ := openRouteLogBytes(t, golden)
	epoch, overrides := l.Last()
	if epoch != 5 || len(overrides) != 1 || overrides["fed-b"] != "n1" {
		t.Fatalf("golden log recovered epoch %d overrides %v, want 5/{fed-b:n1}", epoch, overrides)
	}
	l, path := openRouteLogBytes(t, nil)
	for _, rec := range []routeRecord{
		{2, map[string]string{"fed-a": "n2"}},
		{3, map[string]string{"fed-a": "n2", "fed-b": "n3"}},
		{5, map[string]string{"fed-b": "n1"}},
	} {
		if err := l.Commit(rec.Epoch, rec.Overrides); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, lastFrame(t, golden)) {
		t.Fatal("re-encoded route log differs from the fixture's last frame")
	}
}

// TestRouteLogTornTailTruncated is the route log's torn-tail policy
// (the framing property itself is framelog's): a record cut mid-frame is
// discarded, the table before it surfaces, and the next commit replaces
// the file, tail and all, with one frame.
func TestRouteLogTornTailTruncated(t *testing.T) {
	golden := goldenRouteLog(t)
	l, path := openRouteLogBytes(t, golden[:len(golden)-5])
	if epoch, overrides := l.Last(); epoch != 3 || overrides["fed-b"] != "n3" {
		t.Fatalf("after torn tail: epoch %d overrides %v, want 3/{fed-a:n2 fed-b:n3}", epoch, overrides)
	}
	if err := l.Commit(9, map[string]string{"alpha": "d"}); err != nil {
		t.Fatalf("commit after a torn tail: %v", err)
	}
	if epoch, overrides := reopen(t, path).Last(); epoch != 9 || overrides["alpha"] != "d" {
		t.Fatalf("final state: epoch %d overrides %v, want 9/{alpha:d}", epoch, overrides)
	}
	if raw, _ := os.ReadFile(path); !bytes.Equal(lastFrame(t, raw), raw) {
		t.Fatalf("committed file is not one whole frame (%d bytes)", len(raw))
	}
}

// TestRouteLogCorruptPayloadTruncated is the route log's own corruption
// rule: a frame that passes its CRC but does not hold a JSON record is
// the torn point, exactly like a CRC failure — whatever follows it is
// never read, and the next commit leaves none of it in the file.
func TestRouteLogCorruptPayloadTruncated(t *testing.T) {
	golden := goldenRouteLog(t)
	junk := framelog.Append(nil, []byte("not a route record"))
	later := framelog.Append(nil, []byte(`{"epoch":8,"overrides":{"fed-a":"n9"}}`))
	l, path := openRouteLogBytes(t, append(append(append(junk[:0:0], golden...), junk...), later...))
	if epoch, _ := l.Last(); epoch != 5 {
		t.Fatalf("after an undecodable frame: epoch %d, want 5", epoch)
	}
	if err := l.Commit(6, map[string]string{"fed-b": "n2"}); err != nil {
		t.Fatal(err)
	}
	if epoch, overrides := reopen(t, path).Last(); epoch != 6 || len(overrides) != 1 || overrides["fed-b"] != "n2" {
		t.Fatalf("after the commit: epoch %d overrides %v, want 6/{fed-b:n2}", epoch, overrides)
	}
	if raw, _ := os.ReadFile(path); !bytes.Equal(lastFrame(t, raw), raw) {
		t.Fatalf("committed file is not one whole frame (%d bytes)", len(raw))
	}
}
