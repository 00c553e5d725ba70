package scenario

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/framelog"
)

// Event is one arrival in a recorded or generated schedule: fire the
// named query against the named federation Offset after the schedule
// starts. Offsets are absolute from the start (not inter-arrival gaps)
// so a replayer that falls behind can tell how late it is.
type Event struct {
	Offset     time.Duration
	Federation string
	Query      string
}

// Trace file layout — a magic header, then framelog frames (DESIGN.md
// "Framed logs"):
//
//	8 bytes  magic "MIDTRC01" (format version in the last two bytes)
//	payload: offsetNanos uint64 LE
//	         fedLen uint16 LE | federation bytes
//	         qLen   uint16 LE | query bytes
//
// Unlike the WAL, a torn or corrupt frame is a hard error: a trace is a
// complete artifact, and replaying a silent prefix would break the
// byte-exact reproducibility contract.
var traceMagic = [8]byte{'M', 'I', 'D', 'T', 'R', 'C', '0', '1'}

// ErrTraceCorrupt reports a malformed or truncated trace file.
var ErrTraceCorrupt = errors.New("scenario: corrupt trace")

const maxTracePayload = 1 << 16

// TraceWriter streams events into a trace; NewTraceWriter writes the
// header immediately so even an empty trace is well formed.
type TraceWriter struct {
	w   io.Writer
	buf []byte
	n   int
}

// NewTraceWriter writes the trace header and returns a writer.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) {
	if _, err := w.Write(traceMagic[:]); err != nil {
		return nil, fmt.Errorf("scenario: write trace header: %w", err)
	}
	return &TraceWriter{w: w}, nil
}

// Events returns how many events have been appended.
func (tw *TraceWriter) Events() int { return tw.n }

// Append frames and writes one event.
func (tw *TraceWriter) Append(ev Event) error {
	if ev.Offset < 0 {
		return fmt.Errorf("scenario: negative event offset %v", ev.Offset)
	}
	if len(ev.Federation) > maxTracePayload/4 || len(ev.Query) > maxTracePayload/4 {
		return fmt.Errorf("scenario: event names too long (federation %d, query %d bytes)",
			len(ev.Federation), len(ev.Query))
	}
	b, at := framelog.Begin(tw.buf[:0])
	b = binary.LittleEndian.AppendUint64(b, uint64(ev.Offset))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(ev.Federation)))
	b = append(b, ev.Federation...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(ev.Query)))
	b = framelog.Finish(append(b, ev.Query...), at)
	tw.buf = b
	if _, err := tw.w.Write(b); err != nil {
		return fmt.Errorf("scenario: write trace frame: %w", err)
	}
	tw.n++
	return nil
}

// WriteTrace writes a complete trace in one call.
func WriteTrace(w io.Writer, events []Event) error {
	tw, err := NewTraceWriter(w)
	if err != nil {
		return err
	}
	for _, ev := range events {
		if err := tw.Append(ev); err != nil {
			return err
		}
	}
	return nil
}

// ReadTrace parses a complete trace, verifying the header and every
// frame CRC.
func ReadTrace(r io.Reader) ([]Event, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrTraceCorrupt, err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrTraceCorrupt, magic[:])
	}
	var events []Event
	_, err := framelog.Scan(r, maxTracePayload, framelog.Strict, func(_ int64, p []byte) error {
		if len(p) < 12 {
			return fmt.Errorf("frame %d payload %d bytes", len(events), len(p))
		}
		qOff := 10 + int(binary.LittleEndian.Uint16(p[8:10]))
		if qOff+2 > len(p) || qOff+2+int(binary.LittleEndian.Uint16(p[qOff:])) != len(p) {
			return fmt.Errorf("frame %d name lengths exceed payload", len(events))
		}
		events = append(events, Event{
			Offset:     time.Duration(binary.LittleEndian.Uint64(p)),
			Federation: string(p[10:qOff]),
			Query:      string(p[qOff+2:]),
		})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTraceCorrupt, err)
	}
	return events, nil
}
