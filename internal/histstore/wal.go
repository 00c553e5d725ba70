package histstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/framelog"
)

// WAL records are framelog frames (DESIGN.md "Framed logs") whose
// payload is
//
//	seq  uint64 LE  global observation index, 0-based across the
//	                shard's lifetime
//	nx   uint16 LE  feature count
//	nc   uint16 LE  cost count
//	x    nx × float64 LE
//	c    nc × float64 LE
//
// The sequence number makes replay idempotent: a frame whose
// observation is already applied — a duplicate from an overlapping
// replication batch or a retried write — is skipped by seq, and a gap
// is detected instead of papered over.

// maxFramePayload bounds a single record; anything larger in the
// length field is treated as corruption, not an allocation request.
const maxFramePayload = 1 << 20

// appendFrame appends one complete frame (header + payload) to buf.
func appendFrame(buf []byte, seq uint64, o core.Observation) []byte {
	buf, at := framelog.Begin(buf)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(o.X)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(o.Costs)))
	for _, v := range o.X {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range o.Costs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return framelog.Finish(buf, at)
}

// frameSeq validates a CRC-checked payload's shape and values and
// returns its sequence number without decoding the observation — all a
// replica, which only forwards the bytes, needs. A misshapen payload,
// or one carrying a NaN or ±Inf that History.Append would refuse, is
// framelog.ErrCorrupt: the scan's policy decides what that means.
func frameSeq(p []byte) (uint64, error) {
	if len(p) < 12 {
		return 0, fmt.Errorf("%w: payload shorter than fixed fields", framelog.ErrCorrupt)
	}
	nx := int(binary.LittleEndian.Uint16(p[8:]))
	nc := int(binary.LittleEndian.Uint16(p[10:]))
	if len(p) != 12+8*(nx+nc) {
		return 0, fmt.Errorf("%w: payload size disagrees with counts", framelog.ErrCorrupt)
	}
	for at := 12; at < len(p); at += 8 {
		// All exponent bits set: ±Inf or a NaN.
		if binary.LittleEndian.Uint64(p[at:])&expMask == expMask {
			return 0, fmt.Errorf("%w: value %d is not finite", framelog.ErrCorrupt, (at-12)/8)
		}
	}
	return binary.LittleEndian.Uint64(p), nil
}

// expMask selects a float64's exponent bits.
const expMask = 0x7ff << 52

// decodePayload parses a CRC-validated payload into *scratch, which it
// grows when the payload needs more room and otherwise reuses, so a
// replay decodes every frame into one array: o's vectors are views into
// it, valid until the next call with the same scratch.
func decodePayload(p []byte, scratch *[]float64) (seq uint64, o core.Observation, err error) {
	if seq, err = frameSeq(p); err != nil {
		return 0, o, err
	}
	vals := (*scratch)[:0]
	for at := 12; at < len(p); at += 8 {
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(p[at:])))
	}
	*scratch = vals
	nx := int(binary.LittleEndian.Uint16(p[8:]))
	return seq, core.Observation{X: vals[:nx:nx], Costs: vals[nx:len(vals):len(vals)]}, nil
}
