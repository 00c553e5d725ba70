package server

import (
	"fmt"
	"math"
	"strconv"
	"sync"

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
// fails on a value JSON cannot carry (NaN, ±Inf — History.Append
// refuses them, so none should be held), naming the observation.
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
	for n := range snap.NumMetrics() {
		if n > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, snap.MetricName(n))
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
