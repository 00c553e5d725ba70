package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
)

// A GET /v1/history page is rendered by appending into a pooled buffer
// rather than by building a HistoryResponse and reflecting over it: the
// bytes are exactly those json.NewEncoder(w).Encode(HistoryResponse{…})
// writes (HistoryResponse stays the type clients decode), at a fraction
// of the cost — a page is a few hundred floats, and encoding/json's
// reflection over them cost more than a whole submission's handler.

// maxPooledPage bounds the page buffers the pool keeps: a default page
// of 50 observations is about 6 KB, a full one of 2,048 about 225 KB,
// and one rare large read must not pin that much per pooled entry.
const maxPooledPage = 64 << 10

// historyPage is the pooled per-read state: the body buffer, a snapshot
// header, and per column the previous observation's value and where
// its bytes sit in the buffer — a history's table-size columns repeat
// from one observation to the next, and a repeated value is copied, not
// formatted again.
type historyPage struct {
	buf  []byte
	snap core.Snapshot
	prev []renderedFloat
}

type renderedFloat struct {
	bits       uint64
	start, end int
}

var pagePool = sync.Pool{New: func() any { return new(historyPage) }}

// release returns p to the pool unless its buffer outgrew the bound;
// the snapshot header is cleared so the pool does not pin the history's
// observations.
func (p *historyPage) release() {
	p.snap = core.Snapshot{}
	if cap(p.buf) <= maxPooledPage {
		pagePool.Put(p)
	}
}

// render writes the page of h, fed's history of query: up to limit
// observations, newest first, after skipping offset from the newest end
// (an offset past the end is clamped to it). truncated reports a page
// that stopped short of observation 0, by limit or at the base. It
// fails on a value JSON cannot carry (NaN, ±Inf), naming the
// observation.
func (p *historyPage) render(h *core.History, fed, query string, limit, offset int) (body []byte, truncated bool, err error) {
	snap := &p.snap
	h.SnapshotTo(snap)
	total := snap.Len()
	offset = min(offset, total)
	// Observations at or before the offset that are still held.
	page := min(max(total-offset-snap.Base(), 0), limit)
	truncated = page < total-offset
	b := append(p.buf[:0], `{"federation":`...)
	b = appendJSONString(b, fed)
	b = append(b, `,"query":`...)
	b = appendJSONString(b, query)
	b = append(b, `,"len":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, `,"base":`...)
	b = strconv.AppendInt(b, int64(snap.Base()), 10)
	b = append(b, `,"offset":`...)
	b = strconv.AppendInt(b, int64(offset), 10)
	b = append(b, `,"truncated":`...)
	b = strconv.AppendBool(b, truncated)
	b = append(b, `,"metrics":[`...)
	for n, m := range snap.Metrics() {
		if n > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, m)
	}
	b = append(b, `],"observations":[`...)
	p.prev = p.prev[:0]
	for i := total - 1 - offset; i >= total-offset-page; i-- {
		if i != total-1-offset {
			b = append(b, ',')
		}
		obs := snap.At(i)
		b = append(b, `{"x":`...)
		if b, err = p.appendColumns(b, obs.X, 0); err != nil {
			return nil, truncated, fmt.Errorf("federation %q, %s, observation %d: x: %w", fed, query, i, err)
		}
		b = append(b, `,"costs":`...)
		if b, err = p.appendColumns(b, obs.Costs, len(obs.X)); err != nil {
			return nil, truncated, fmt.Errorf("federation %q, %s, observation %d: costs: %w", fed, query, i, err)
		}
		b = append(b, '}')
	}
	b = append(b, "]}\n"...)
	p.buf = b
	return b, truncated, nil
}

// appendColumns appends vs as a JSON array (History.Append stores no
// nil slice, so there is no null to write); column numbers its first
// value among the observation's columns for the repeated-value cache.
func (p *historyPage) appendColumns(b []byte, vs []float64, column int) ([]byte, error) {
	for len(p.prev) < column+len(vs) {
		p.prev = append(p.prev, renderedFloat{}) // end 0: nothing rendered yet
	}
	b = append(b, '[')
	for j, f := range vs {
		if j > 0 {
			b = append(b, ',')
		}
		c := &p.prev[column+j]
		if bits := math.Float64bits(f); c.end > 0 && bits == c.bits {
			b = append(b, b[c.start:c.end]...)
			continue
		}
		start := len(b)
		var ok bool
		if b, ok = appendJSONFloat(b, f); !ok {
			return nil, fmt.Errorf("value %d is %v, which JSON cannot carry", j, f)
		}
		*c = renderedFloat{bits: math.Float64bits(f), start: start, end: len(b)}
	}
	return append(b, ']'), nil
}

// appendJSONFloat appends f exactly as encoding/json writes a float64 —
// the shortest round-trip digits in 'f' format, or in 'e' format below
// 1e-6 and from 1e21 up, with a one-digit negative exponent unpadded
// (e-07 → e-7) — and reports false for NaN and ±Inf, which JSON cannot
// carry. An integer below 2⁵³ in magnitude is written by AppendInt,
// which prints the same digits faster; −0 is not one ('f' writes "-0").
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if f > -(1<<53) && f < 1<<53 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, int64(f), 10), true
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendJSONString appends s quoted as encoding/json writes it, HTML
// escapes included. A name of plain printable ASCII without '"', '\\',
// '<', '>' or '&' — every federation, query and metric name in practice
// — is copied between quotes; any other goes through json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
