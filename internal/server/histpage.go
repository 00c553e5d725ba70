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
// header, per column the previous observation's value and where its
// bytes sit in the buffer — a history's table-size columns repeat from
// one observation to the next, and a repeated value is copied, not
// formatted again — and the cost record this read writes for its
// query's cache (see costSlot). hits counts the costs copied from the
// cache by the last render.
type historyPage struct {
	buf  []byte
	snap core.Snapshot
	prev []renderedFloat
	rec  costRecord
	hits int
}

type renderedFloat struct {
	bits       uint64
	start, end int
}

var pagePool = sync.Pool{New: func() any { return new(historyPage) }}

// release returns p to the pool unless its buffer or its cost record
// outgrew the bound; the snapshot header is cleared so the pool does
// not pin the history's observations.
func (p *historyPage) release() {
	p.snap = core.Snapshot{}
	if cap(p.buf) <= maxPooledPage && p.rec.size() <= maxPooledPage {
		pagePool.Put(p)
	}
}

// costSlot is one served query's cost cache: the record of the page
// last rendered for it. A dashboard polls the newest page, and each
// poll sees only the few observations appended since the last one, so
// most of a page's costs were formatted by the read before; their text
// is copied instead (shortest-float formatting is most of a page's
// cost). A newest page that shares no observation with the record
// gains nothing and still records its costs, which makes it about a
// tenth slower than a page rendered without a cache. An older page (at
// an offset, starting below the record's newest observation) copies
// what it shares and records nothing, so it neither pays for recording
// nor evicts the poller's record. The slot is taken with TryLock alone:
// a reader that finds it busy renders without the cache and leaves it
// as it was, so no reader waits on another.
type costSlot struct {
	mu  sync.Mutex
	rec costRecord
}

// costRecord is the JSON text of a page's costs in render order —
// newest observation first, each one's costs in column order — with the
// bits each text came from. newest is the index of the page's newest
// observation, so the record names each cost by (observation, column).
// A cost is copied only when its bits are the recorded ones, so a copied
// page is byte-identical to a formatted one whatever happened to the
// history between the reads.
type costRecord struct {
	newest int
	bits   []uint64
	ends   []uint32 // cost k's text is text[ends[k-1]:ends[k]]
	text   []byte
}

// lookup returns the text of observation i's cost in column j of m, if
// r records it from the same bits; a nil r records nothing.
func (r *costRecord) lookup(i, j, m int, bits uint64) ([]byte, bool) {
	if r == nil || i > r.newest {
		return nil, false
	}
	k := (r.newest-i)*m + j
	if k >= len(r.bits) || r.bits[k] != bits {
		return nil, false
	}
	var start uint32
	if k > 0 {
		start = r.ends[k-1]
	}
	return r.text[start:r.ends[k]], true
}

// reset empties r, keeping its storage, for a page whose newest
// observation is newest.
func (r *costRecord) reset(newest int) {
	r.newest = newest
	r.bits, r.ends, r.text = r.bits[:0], r.ends[:0], r.text[:0]
}

// add records the next cost in render order.
func (r *costRecord) add(bits uint64, text []byte) {
	r.bits = append(r.bits, bits)
	r.text = append(r.text, text...)
	r.ends = append(r.ends, uint32(len(r.text)))
}

// size is the heap r holds, in bytes.
func (r *costRecord) size() int {
	return cap(r.text) + 8*cap(r.bits) + 4*cap(r.ends)
}

// render writes the page of h, fed's history of query: up to limit
// observations, newest first, after skipping offset from the newest end
// (an offset past the end is clamped to it). truncated reports a page
// that stopped short of observation 0, by limit or at the base. It
// fails on a value JSON cannot carry (NaN, ±Inf — History.Append
// refuses them, so none should be held), naming the observation.
//
// slot is the query's cost cache. When render takes it, the page
// copies the costs it records and, once written, leaves its own record
// there unless the page is an older one than the record's; the slot's
// old record becomes p's scratch, so each query holds one record and
// reading allocates nothing for it. A record past maxPooledPage is not
// kept.
func (p *historyPage) render(h *core.History, fed, query string, limit, offset int, slot *costSlot) (body []byte, truncated bool, err error) {
	h.SnapshotTo(&p.snap)
	offset = min(offset, p.snap.Len())
	if !slot.mu.TryLock() {
		return p.write(fed, query, limit, offset, nil, nil)
	}
	defer slot.mu.Unlock()
	if offset > 0 && p.snap.Len()-1-offset < slot.rec.newest {
		return p.write(fed, query, limit, offset, &slot.rec, nil)
	}
	body, truncated, err = p.write(fed, query, limit, offset, &slot.rec, &p.rec)
	if err == nil && p.rec.size() <= maxPooledPage {
		slot.rec, p.rec = p.rec, slot.rec
	}
	return body, truncated, err
}

// write renders the page of p.snap into p.buf, copying from cache the
// costs it records and recording every cost in rec; either may be nil.
func (p *historyPage) write(fed, query string, limit, offset int, cache, rec *costRecord) (body []byte, truncated bool, err error) {
	snap := &p.snap
	total := snap.Len()
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
	p.hits = 0
	if rec != nil {
		rec.reset(total - 1 - offset)
	}
	for i := total - 1 - offset; i >= total-offset-page; i-- {
		if i != total-1-offset {
			b = append(b, ',')
		}
		obs := snap.At(i)
		b = append(b, `{"x":`...)
		if b, err = p.appendColumns(b, obs.X, 0, i, nil, nil); err != nil {
			return nil, truncated, fmt.Errorf("federation %q, %s, observation %d: x: %w", fed, query, i, err)
		}
		b = append(b, `,"costs":`...)
		if b, err = p.appendColumns(b, obs.Costs, len(obs.X), i, cache, rec); err != nil {
			return nil, truncated, fmt.Errorf("federation %q, %s, observation %d: costs: %w", fed, query, i, err)
		}
		b = append(b, '}')
	}
	b = append(b, "]}\n"...)
	p.buf = b
	return b, truncated, nil
}

// appendColumns appends vs, observation i's values from column on, as a
// JSON array (History.Append stores no nil slice, so there is no null
// to write). A value is copied, not formatted, when cache records it
// from the same bits or when it repeats the previous observation's in
// the same column; with a rec, every value's bits and text go into it.
func (p *historyPage) appendColumns(b []byte, vs []float64, column, i int, cache, rec *costRecord) ([]byte, error) {
	for len(p.prev) < column+len(vs) {
		p.prev = append(p.prev, renderedFloat{}) // end 0: nothing rendered yet
	}
	b = append(b, '[')
	for j, f := range vs {
		if j > 0 {
			b = append(b, ',')
		}
		bits := math.Float64bits(f)
		start := len(b)
		c := &p.prev[column+j]
		if text, ok := cache.lookup(i, j, len(vs), bits); ok {
			b = append(b, text...)
			p.hits++
		} else if c.end > 0 && bits == c.bits {
			b = append(b, b[c.start:c.end]...)
		} else if b, ok = appendJSONFloat(b, f); ok {
			*c = renderedFloat{bits: bits, start: start, end: len(b)}
		} else {
			return nil, unencodable(j, f)
		}
		if rec != nil {
			rec.add(bits, b[start:])
		}
	}
	return append(b, ']'), nil
}

func unencodable(j int, f float64) error {
	return fmt.Errorf("value %d is %v, which JSON cannot carry", j, f)
}
