// Package framelog owns the one frame format every durable or shipped
// form of MIDAS state is guarded by — the histstore WAL, the handoff
// and replica streams, the cluster route log, the MIDTRC01 trace — and
// nothing else: callers keep their payload codec and their corruption
// policy. A frame is
//
//	length uint32 LE  payload byte count, 1 ≤ length ≤ the caller's bound
//	crc    uint32 LE  CRC-32C (Castagnoli) of the payload
//	payload
//
// A zero length is corruption, never a frame: a zero-filled tail (the
// usual shape of a torn write) must not scan as records.
package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// HeaderSize is the byte count of the length+crc prefix.
const HeaderSize = 8

// TmpSuffix names the sibling file WriteFileAtomic stages its content
// in: <path>.tmp. One found at open time is a write that never
// committed.
const TmpSuffix = ".tmp"

// trustedAlloc is the largest payload buffer allocated on the header's
// word alone; a longer declared length grows the buffer only as bytes
// actually arrive, so a forged header costs its sender real traffic.
const trustedAlloc = 1 << 20

// ErrCorrupt marks a short, oversized, zero-length or CRC-failing
// frame. A Scan callback returns it (possibly wrapped) to declare a
// CRC-valid frame undecodable — "treat this frame as the torn point".
var ErrCorrupt = errors.New("framelog: corrupt frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Mode is a scan's corruption policy.
type Mode int

const (
	// TruncateTornTail ends the scan cleanly at the first corrupt frame:
	// an append log whose writer crashed mid-frame is whole again once
	// cut there.
	TruncateTornTail Mode = iota
	// Strict fails the scan on the first corrupt frame: a complete
	// artifact (a trace, a shipped batch) has no tail to forgive.
	Strict
)

// Begin opens a frame at the end of buf by reserving its header; the
// caller appends the payload and seals it with Finish(buf, at). Encoding
// in place keeps an append path that reuses buf allocation-free.
func Begin(buf []byte) (out []byte, at int) {
	return append(buf, make([]byte, HeaderSize)...), len(buf)
}

// Finish seals the frame begun at offset at: everything appended since
// is its payload.
func Finish(buf []byte, at int) []byte {
	payload := buf[at+HeaderSize:]
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[at+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// Append appends one complete frame holding payload to buf.
func Append(buf, payload []byte) []byte {
	buf, at := Begin(buf)
	return Finish(append(buf, payload...), at)
}

// Prefix measures the longest run of whole frames at the start of buf
// that fits in max bytes — at least one frame, however long — by their
// length words alone: n is its byte count, frames how many it holds. It
// is how a sender cuts a log into batches on frame boundaries; checking
// the frames is the receiver's Scan. n == 0 with buf non-empty means buf
// does not begin with a whole frame.
func Prefix(buf []byte, max int) (n, frames int) {
	for n+HeaderSize <= len(buf) {
		size := HeaderSize + int64(binary.LittleEndian.Uint32(buf[n:]))
		if size > int64(len(buf)-n) || (frames > 0 && size > int64(max-n)) {
			break
		}
		n, frames = n+int(size), frames+1
	}
	return n, frames
}

// Scan reads frames from r in order, invoking fn with each intact
// frame's start offset and payload (valid only during the call), and
// returns the offset at which the valid prefix ends. A corrupt frame —
// short header or payload, length 0 or above maxPayload, CRC mismatch,
// or fn returning ErrCorrupt — ends the scan there: with a nil error
// under TruncateTornTail, with an ErrCorrupt-wrapping one under Strict.
// Reader failures and any other fn error abort the scan and are
// returned as they are; a caller must not truncate on those.
func Scan(r io.Reader, maxPayload int, mode Mode, fn func(off int64, payload []byte) error) (int64, error) {
	return scan(&source{br: bufio.NewReader(r)}, maxPayload, mode, fn)
}

// ScanBytes is Scan over frames already in memory: each payload fn sees
// is a view into buf, with no read buffer or copy in between.
func ScanBytes(buf []byte, maxPayload int, mode Mode, fn func(off int64, payload []byte) error) (int64, error) {
	return scan(&source{mem: buf}, maxPayload, mode, fn)
}

// source is where scan reads frames from: a reader through a buffer,
// or — br nil — the bytes of mem, whose payloads are handed out as
// views.
type source struct {
	br      *bufio.Reader
	mem     []byte
	payload []byte // br's payload scratch, reused frame to frame
}

// header returns the next frame's header without consuming it: fewer
// than HeaderSize bytes, with io.EOF, at the end of the input.
func (s *source) header() ([]byte, error) {
	if s.br != nil {
		return s.br.Peek(HeaderSize)
	}
	if len(s.mem) < HeaderSize {
		return s.mem, io.EOF
	}
	return s.mem[:HeaderSize], nil
}

// next consumes the header and returns the n payload bytes after it:
// fewer, with io.EOF or io.ErrUnexpectedEOF, when the input ends first.
func (s *source) next(n int) ([]byte, error) {
	if s.br == nil {
		rest := s.mem[HeaderSize:]
		if len(rest) < n {
			return rest, io.ErrUnexpectedEOF
		}
		s.mem = rest[n:]
		return rest[:n:n], nil
	}
	_, _ = s.br.Discard(HeaderSize) // cannot fail: header buffered these bytes
	var err error
	s.payload, err = readPayload(s.br, s.payload[:0], n)
	return s.payload, err
}

// scan is the one frame decoder, Scan's and ScanBytes'.
func scan(src *source, maxPayload int, mode Mode, fn func(off int64, payload []byte) error) (int64, error) {
	var off int64
	corrupt := func(format string, args ...any) (int64, error) {
		if mode == TruncateTornTail {
			return off, nil
		}
		return off, fmt.Errorf("%w at byte %d: %s", ErrCorrupt, off, fmt.Sprintf(format, args...))
	}
	for {
		header, err := src.header()
		switch {
		case err == io.EOF && len(header) == 0:
			return off, nil
		case err == io.EOF:
			return corrupt("torn header (%d bytes)", len(header))
		case err != nil:
			return off, err
		}
		n := binary.LittleEndian.Uint32(header)
		crc := binary.LittleEndian.Uint32(header[4:])
		if n == 0 || int64(n) > int64(maxPayload) {
			return corrupt("payload length %d outside [1, %d]", n, maxPayload)
		}
		payload, err := src.next(int(n))
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			return corrupt("torn payload (%d of %d bytes)", len(payload), n)
		case err != nil:
			return off, err
		case crc32.Checksum(payload, castagnoli) != crc:
			return corrupt("crc mismatch")
		}
		if err := fn(off, payload); err != nil {
			if mode == TruncateTornTail && errors.Is(err, ErrCorrupt) {
				return off, nil
			}
			return off, err
		}
		off += HeaderSize + int64(n)
	}
}

// readPayload fills buf with the next n bytes of br. Up to trustedAlloc
// the buffer is sized on the header's word; beyond it, it doubles only
// as the bytes before have actually arrived.
func readPayload(br *bufio.Reader, buf []byte, n int) ([]byte, error) {
	for len(buf) < n {
		have, want := len(buf), min(n, max(2*len(buf), trustedAlloc))
		if want > cap(buf) {
			buf = append(make([]byte, 0, want), buf...)
		}
		got, err := io.ReadFull(br, buf[have:want])
		buf = buf[:have+got]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// OpenAppend opens (creating if needed) the append log at path, replays
// its intact frames through fn under TruncateTornTail, cuts the file
// back to the valid prefix and leaves the handle positioned there — the
// next write starts on a frame boundary. end is that offset; torn
// reports whether a tail was dropped.
func OpenAppend(path string, maxPayload int, fn func(off int64, payload []byte) error) (f *os.File, end int64, torn bool, err error) {
	f, err = os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, false, err
	}
	if end, err = Scan(f, maxPayload, TruncateTornTail, fn); err == nil {
		var fi os.FileInfo
		if fi, err = f.Stat(); err == nil && fi.Size() > end {
			torn = true
			err = f.Truncate(end)
		}
	}
	if err == nil {
		_, err = f.Seek(end, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, 0, false, err
	}
	return f, end, torn, nil
}

// WriteFileAtomic replaces path with whatever write produces, so that a
// crash at any point leaves either the old file or the complete new
// one: the content is staged in a sibling temp file, fsynced, and
// renamed over path, and the directory is fsynced so the rename itself
// survives a crash. A leftover temp file is a failed write and is safe
// to delete. When only the directory fsync fails the new file is in
// place and complete but the error is returned: the caller must treat
// the write as not durable.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + TmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory, making the names in it durable: what a
// caller that creates a file by another route than WriteFileAtomic owes
// it before relying on the name.
func SyncDir(dir string) error { return syncDir(dir) }

// syncDir is a variable so tests can observe the call and inject its
// failure.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
