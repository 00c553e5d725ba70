package scenario

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/framelog"
)

func sampleEvents() []Event {
	return []Event{
		{Offset: 0, Federation: "default", Query: "Q12"},
		{Offset: 1500 * time.Microsecond, Federation: "default", Query: "Q13"},
		{Offset: 2 * time.Second, Federation: "paper", Query: "Q17"},
		{Offset: time.Hour, Federation: "wide", Query: "Q14"},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleEvents()) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, sampleEvents())
	}
}

func TestTraceBytesDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteTrace(&a, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&b, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical events serialized to different bytes")
	}
}

func TestTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty trace read back %d events", len(got))
	}
}

func TestTraceWriterCounts(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range sampleEvents() {
		if err := tw.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if tw.Events() != len(sampleEvents()) {
		t.Fatalf("writer counted %d events, want %d", tw.Events(), len(sampleEvents()))
	}
	if err := tw.Append(Event{Offset: -time.Second, Federation: "x", Query: "Q12"}); err == nil {
		t.Fatal("negative offset must be rejected")
	}
}

// TestTraceCorruptionDetected is the trace's policy: it is a complete
// artifact, so anything framelog would forgive in an append log — and
// any CRC-valid frame that is not an event — is ErrTraceCorrupt. (The
// framing property itself is tested once, in internal/framelog.)
func TestTraceCorruptionDetected(t *testing.T) {
	var pristine bytes.Buffer
	if err := WriteTrace(&pristine, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	full := pristine.Bytes()
	mutate := func(at int) []byte {
		b := append([]byte(nil), full...)
		b[at] ^= 0xFF
		return b
	}
	for name, b := range map[string][]byte{
		"bad magic":            mutate(0),
		"flipped payload byte": mutate(len(full) - 1),
		"truncated tail":       full[:len(full)-3],
		"truncated header":     full[:4],
		"misshapen payload":    framelog.Append(append([]byte(nil), full...), []byte("twelve bytes, no event")),
		"oversized frame":      framelog.Append(append([]byte(nil), full...), make([]byte, maxTracePayload+1)),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadTrace(bytes.NewReader(b)); !errors.Is(err, ErrTraceCorrupt) {
				t.Fatalf("want ErrTraceCorrupt, got %v", err)
			}
		})
	}
}

// TestTraceGolden: testdata/trace.midtrc was written by the commit
// before the trace moved onto internal/framelog; today's reader decodes
// it and today's writer reproduces it byte for byte.
func TestTraceGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "trace.midtrc"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Offset: 0, Federation: "default", Query: "Q12"},
		{Offset: 1500 * time.Microsecond, Federation: "hospital-a", Query: "Q13"},
		{Offset: 2 * time.Second, Federation: "", Query: "Q14"},
		{Offset: time.Hour, Federation: "default", Query: "Q17"},
	}
	got, err := ReadTrace(bytes.NewReader(golden))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("golden trace read back %+v (err %v)", got, err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatal("re-encoded trace differs from the parent-written fixture")
	}
}

// FuzzReadTrace: arbitrary bytes either parse or fail with
// ErrTraceCorrupt — never panic — and whatever parses re-encodes to the
// very bytes it was read from (when the writer, stricter than the
// reader about offsets and name lengths, takes the events at all).
func FuzzReadTrace(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteTrace(&seed, sampleEvents()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()-2])
	f.Add(traceMagic[:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrTraceCorrupt) {
				t.Fatalf("ReadTrace failed with a foreign error: %v", err)
			}
			return
		}
		var again bytes.Buffer
		if err := WriteTrace(&again, events); err == nil && !bytes.Equal(again.Bytes(), data) {
			t.Fatal("parse → encode is not the identity on a valid trace")
		}
	})
}
