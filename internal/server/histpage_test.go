package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/tpch"
)

// encodedPage is the page as the reflection-driven encoder writes it:
// a HistoryResponse built observation by observation, then
// json.NewEncoder(…).Encode. The appended page must match it byte for
// byte.
func encodedPage(fed string, q tpch.QueryID, snap *core.Snapshot, limit, offset int) ([]byte, error) {
	total := snap.Len()
	offset = min(offset, total)
	page := min(max(total-offset-snap.Base(), 0), limit)
	resp := HistoryResponse{
		Federation:   fed,
		Query:        q.String(),
		Len:          total,
		Base:         snap.Base(),
		Offset:       offset,
		Truncated:    page < total-offset,
		Metrics:      snap.Metrics(),
		Observations: make([]ObservationJSON, 0, page),
	}
	for i := total - 1 - offset; i >= total-offset-page; i-- {
		obs := snap.At(i)
		resp.Observations = append(resp.Observations, ObservationJSON{X: obs.X, Costs: obs.Costs})
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

// edgeFloats are the values where a hand-written float formatter goes
// wrong: both sides of 2⁵³ (the integer fast path's bound), of 1e21 and
// 1e-6 (encoding/json's switches to 'e' format), −0, subnormals and the
// one-digit negative exponent encoding/json unpads.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 123.456, -2.5,
	1<<53 - 1, 1 << 53, 1<<53 + 2, -(1<<53 - 1), -(1 << 53),
	1e15, -1e15, 1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 1.5e300, math.MaxFloat64,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, -1.5e-7, 1e-10,
	math.SmallestNonzeroFloat64, 12345 * math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1030,
}

// finiteBits draws a float from uniformly random bits, redrawn until it
// is finite: every exponent, sign and mantissa pattern JSON can carry.
func finiteBits(rng *rand.Rand) float64 {
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func TestHistoryPageMatchesEncodingJSON(t *testing.T) {
	// Names that take HTML and control escapes, a non-ASCII rune and
	// the line separators encoding/json escapes too.
	const fed = "h<1>&\"2\"\\ é\t\u2028"
	h, err := core.NewHistory(federation.FeatureDim, "time<s>", "money&usd")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 45))
	appended := 0
	add := func(n int) {
		t.Helper()
		for range n {
			i := appended
			appended++
			x := []float64{
				edgeFloats[i%len(edgeFloats)],
				1e15,                              // constant: every repeat is copied
				math.Copysign(0, -1),              // constant −0
				finiteBits(rng),                   // never repeats
				edgeFloats[(i/2)%len(edgeFloats)], // each value twice, then a new one
			}
			costs := []float64{finiteBits(rng) * 1e-300, edgeFloats[(i*7)%len(edgeFloats)]}
			if err := h.Append(core.Observation{X: x, Costs: costs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(120)
	srv, err := NewWithSchedulers(Config{}, map[string]QueryScheduler{fed: &stubSched{hist: h}}, tpch.AllQueries)
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()

	read := func(limit, offset string) {
		t.Helper()
		v := url.Values{"federation": {fed}}
		wantLimit, wantOffset := defaultHistoryLimit, 0
		if limit != "" {
			v.Set("limit", limit)
			wantLimit, _ = strconv.Atoi(limit)
		}
		if offset != "" {
			v.Set("offset", offset)
			wantOffset, _ = strconv.Atoi(offset)
		}
		want, err := encodedPage(fed, tpch.QueryQ13, h.Snapshot(), wantLimit, wantOffset)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/history/Q13?"+v.Encode(), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("limit=%q offset=%q: status %d: %s", limit, offset, rec.Code, rec.Body)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("limit=%q offset=%q: page differs from encoding/json at byte %d\n got %.300q\nwant %.300q",
				limit, offset, firstDiff(got, want), got, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Fatalf("limit=%q offset=%q: Content-Length %q for %d bytes", limit, offset, cl, len(want))
		}
	}
	// check reads a page, appends three observations and reads it
	// again, so the second read copies the costs the first formatted:
	// offset 3 reads the same observations, any other page overlaps.
	check := func(limit, offset string) {
		t.Helper()
		read(limit, offset)
		add(3)
		read(limit, offset)
	}
	pages := func() {
		t.Helper()
		n := h.Snapshot().Len()
		for _, limit := range []string{"", "0", "1", "2", "7", "50", "1000000"} {
			for _, offset := range []string{"", "0", "1", "3", "49", strconv.Itoa(n - 1), strconv.Itoa(n), strconv.Itoa(n + 5)} {
				check(limit, offset)
			}
		}
	}
	pages()
	// Bounded: pages that stop at the base, and ones wholly below it;
	// the appends between two reads now trim the history.
	h.SetRetain(40)
	if h.Snapshot().Base() == 0 {
		t.Fatal("SetRetain dropped nothing")
	}
	pages()
	for _, c := range []struct {
		limit, below int
	}{
		{1000, 3}, // three held, the page stops at the base
		{3, 3},    // exactly down to the base
		{2, 0},    // starts at the base: empty
	} {
		snap := h.Snapshot()
		read(strconv.Itoa(c.limit), strconv.Itoa(snap.Len()-snap.Base()-c.below))
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestHistoryPageNeverCarriesNonFinite: a value JSON cannot carry never
// reaches a page. History.Append refuses it, so every page over the
// history answers 200 with the finite observations alone; and were one
// held, the renderer would refuse it, naming the observation and the
// column, rather than answer 200 with an empty body.
func TestHistoryPageNeverCarriesNonFinite(t *testing.T) {
	stub := &stubSched{}
	h := stub.History(tpch.QueryQ13)
	for i := 0; i < 5; i++ {
		x, costs := []float64{float64(i), 1, 1, 1, 0}, []float64{float64(i), 1}
		switch i {
		case 3:
			costs[0] = math.NaN()
		case 1:
			x[2] = math.Inf(-1)
		}
		err := h.Append(core.Observation{X: x, Costs: costs})
		if refused := i == 1 || i == 3; refused != errors.Is(err, core.ErrNonFinite) {
			t.Fatalf("observation %d: Append = %v", i, err)
		}
	}
	handler := newTestServer(t, stub, Config{}).Handler()
	for _, query := range []string{"", "?offset=1", "?offset=2&limit=1", "?limit=1"} {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/history/Q13"+query, nil))
		var page HistoryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("%q: status %d, body %q (%v)", query, rec.Code, rec.Body, err)
		}
		if page.Len != 3 {
			t.Errorf("%q: len %d, want the 3 finite observations", query, page.Len)
		}
	}
	p := pagePool.Get().(*historyPage)
	defer p.release()
	if _, err := p.appendColumns(nil, []float64{1, math.Inf(1)}, 0, 0, nil, nil); err == nil || err.Error() != "value 1 is +Inf, which JSON cannot carry" {
		t.Errorf("appendColumns over +Inf: %v", err)
	}
	if _, err := p.appendColumns(nil, []float64{math.NaN()}, 0, 0, &costRecord{}, &p.rec); err == nil || err.Error() != "value 0 is NaN, which JSON cannot carry" {
		t.Errorf("appendColumns over NaN with a cache: %v", err)
	}
}

// TestWriteJSONRefusesUnencodable: a value that does not encode
// answers 500 with an error body, never the requested status with an
// empty one.
func TestWriteJSONRefusesUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"p50_ms": math.NaN()})
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusInternalServerError || er.Error == "" {
		t.Fatalf("status %d, body %q (%v); want 500 with an error", rec.Code, rec.Body, err)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusAccepted, ErrorResponse{Error: "fine"})
	if rec.Code != http.StatusAccepted || rec.Body.String() != `{"error":"fine"}`+"\n" {
		t.Fatalf("status %d, body %q", rec.Code, rec.Body)
	}
}

// FuzzHistoryPage: for any observation values (raw bits; History.Append
// refuses exactly the NaN and ±Inf among them), names and paging, the
// appended page is byte for byte what encoding/json writes, and fails
// exactly when encoding/json does — read once after the first half of
// the observations, then again through the same cost cache after the
// second half, so the second read copies what the first formatted.
func FuzzHistoryPage(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(edgeFloats...), "main", "time_s", uint16(50), uint16(0), uint8(0))
	f.Add(seed(1e15, 1e15, 1e15, math.Copysign(0, -1), 3, 1e-7, 1e21), "a<b>&c", "m\u2028", uint16(3), uint16(1), uint8(2))
	f.Add(seed(1, math.NaN(), 2, math.Inf(1)), "x", "y", uint16(9), uint16(0), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, fed, metric string, limit, offset uint16, retain uint8) {
		var vals []float64
		for i := 0; i+8 <= len(raw) && len(vals) < 4096; i += 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
		}
		h, err := core.NewHistory(3, metric, "money")
		if err != nil {
			t.Skip(err)
		}
		h.SetRetain(int(retain))
		var slot costSlot
		half := len(vals) / 10 * 5
		for _, part := range [][]float64{vals[:half], vals[half:]} {
			for i := 0; i+5 <= len(part); i += 5 {
				err := h.Append(core.Observation{X: part[i : i+3], Costs: part[i+3 : i+5]})
				finite := !slices.ContainsFunc(part[i:i+5], func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) })
				if finite != (err == nil) {
					t.Fatalf("Append(%v) = %v", part[i:i+5], err)
				}
			}
			p := pagePool.Get().(*historyPage)
			got, _, err := p.render(h, fed, tpch.QueryQ12.String(), int(limit), int(offset), &slot)
			want, wantErr := encodedPage(fed, tpch.QueryQ12, &p.snap, int(limit), int(offset))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("render error %v, encoding/json error %v", err, wantErr)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("page differs at byte %d\n got %q\nwant %q", firstDiff(got, want), got, want)
			}
			p.release()
		}
	})
}

// cachePage renders h's page through slot, holds it to encoding/json's
// bytes for the snapshot it read, and returns how many costs it copied
// from the cache.
func cachePage(t *testing.T, h *core.History, slot *costSlot, limit, offset int) int {
	t.Helper()
	p := pagePool.Get().(*historyPage)
	defer p.release()
	got, _, err := p.render(h, "main", tpch.QueryQ12.String(), limit, offset, slot)
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodedPage("main", tpch.QueryQ12, &p.snap, limit, offset)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("limit %d offset %d: page differs from encoding/json at byte %d\n got %.300q\nwant %.300q",
			limit, offset, firstDiff(got, want), got, want)
	}
	return p.hits
}

// costHistory is a two-metric history of n observations whose costs
// cost(i, column) gives.
func costHistory(t *testing.T, n int, cost func(i, column int) float64) *core.History {
	t.Helper()
	h, err := core.NewHistory(2, "time_s", "money_usd")
	if err != nil {
		t.Fatal(err)
	}
	appendCostRows(t, h, 0, n, cost)
	return h
}

// appendCostRows appends observations from to to-1 to h.
func appendCostRows(t *testing.T, h *core.History, from, to int, cost func(i, column int) float64) {
	t.Helper()
	for i := from; i < to; i++ {
		obs := core.Observation{X: []float64{1e6, float64(i % 3)}, Costs: []float64{cost(i, 0), cost(i, 1)}}
		if err := h.Append(obs); err != nil {
			t.Fatal(err)
		}
	}
}

// measured draws costs as a served history holds them: values of full
// precision that never repeat.
func measured(i, column int) float64 {
	return (float64(i) + 1) * (1.0123456789 + float64(column)) / 7
}

// TestHistoryPageCostCache: a page copies from its query's cost cache
// exactly the costs the last page rendered formatted from the same bits
// for the same observation, and every page stays encoding/json's bytes.
func TestHistoryPageCostCache(t *testing.T) {
	t.Run("polled", func(t *testing.T) {
		// The durable workload's dashboard: 50 observations after every
		// nine appends, so 41 of the 50 were on the last page.
		var slot costSlot
		h := costHistory(t, 60, measured)
		if hits := cachePage(t, h, &slot, 50, 0); hits != 0 {
			t.Fatalf("first read copied %d costs from an empty cache", hits)
		}
		appendCostRows(t, h, 60, 69, measured)
		if hits := cachePage(t, h, &slot, 50, 0); hits != 41*2 {
			t.Fatalf("after nine appends: %d costs copied, want %d", hits, 41*2)
		}
		if hits := cachePage(t, h, &slot, 50, 0); hits != 50*2 {
			t.Fatalf("the same page again: %d costs copied, want %d", hits, 50*2)
		}
	})
	t.Run("offset", func(t *testing.T) {
		var slot costSlot
		h := costHistory(t, 60, measured)
		cachePage(t, h, &slot, 50, 0)
		if hits := cachePage(t, h, &slot, 50, 5); hits != 45*2 {
			t.Fatalf("five older: %d costs copied, want %d", hits, 45*2)
		}
	})
	t.Run("offset read between polls", func(t *testing.T) {
		// An older page, overlapping the poller's record or not, leaves
		// the record as it was, so the next poll still copies.
		for _, offset := range []int{5, 50} {
			var slot costSlot
			h := costHistory(t, 120, measured)
			cachePage(t, h, &slot, 50, 0)
			newest, bits := slot.rec.newest, slices.Clone(slot.rec.bits)
			hits := cachePage(t, h, &slot, 50, offset)
			if want := max(50-offset, 0) * 2; hits != want {
				t.Fatalf("offset %d: %d costs copied, want %d", offset, hits, want)
			}
			if slot.rec.newest != newest || !slices.Equal(slot.rec.bits, bits) {
				t.Fatalf("offset %d moved the record: newest %d → %d", offset, newest, slot.rec.newest)
			}
			appendCostRows(t, h, 120, 129, measured)
			if hits := cachePage(t, h, &slot, 50, 0); hits != 41*2 {
				t.Fatalf("offset %d, then a poll after nine appends: %d costs copied, want %d", offset, hits, 41*2)
			}
		}
	})
	t.Run("limit beyond the cached page", func(t *testing.T) {
		var slot costSlot
		h := costHistory(t, 60, measured)
		cachePage(t, h, &slot, 10, 0)
		if hits := cachePage(t, h, &slot, 50, 0); hits != 10*2 {
			t.Fatalf("50 after 10: %d costs copied, want %d", hits, 10*2)
		}
		if hits := cachePage(t, h, &slot, 1000, 0); hits != 50*2 {
			t.Fatalf("the whole history after 50: %d costs copied, want %d", hits, 50*2)
		}
	})
	t.Run("trim between reads", func(t *testing.T) {
		var slot costSlot
		h := costHistory(t, 70, measured)
		h.SetRetain(32) // base 32: observations 69..32 held
		cachePage(t, h, &slot, 50, 0)
		appendCostRows(t, h, 70, 100, measured) // base 64: 99..64 held
		if base := h.Snapshot().Base(); base != 64 {
			t.Fatalf("base %d, want 64", base)
		}
		if hits := cachePage(t, h, &slot, 50, 0); hits != 6*2 {
			t.Fatalf("after the trim: %d costs copied, want the %d of observations 69..64", hits, 6*2)
		}
	})
	t.Run("long and e-format texts", func(t *testing.T) {
		// The longest texts a float takes: 24 bytes in 'e' format, 25 in
		// 'f' format just above encoding/json's 1e-6 switch.
		long := []float64{-2.2250738585072014e-308, math.Nextafter(-1.2345678901234567e-6, -1), 1.2345678901234567e-300, 1.5e300}
		for _, f := range long[:2] {
			if text, _ := appendJSONFloat(nil, f); len(text) < 24 {
				t.Fatalf("%v takes %d bytes (%s), want 24 or 25", f, len(text), text)
			}
		}
		var slot costSlot
		cost := func(i, column int) float64 { return long[(i+column)%len(long)] * float64(1+i%5) }
		h := costHistory(t, 20, cost)
		cachePage(t, h, &slot, 50, 0)
		appendCostRows(t, h, 20, 23, cost)
		if hits := cachePage(t, h, &slot, 50, 0); hits != 20*2 {
			t.Fatalf("%d costs copied, want %d", hits, 20*2)
		}
	})
	t.Run("negative zero", func(t *testing.T) {
		// −0 and +0 compare equal but differ in their bits and in their
		// text: a page of one after a page of the other copies neither.
		var slot costSlot
		neg := costHistory(t, 10, func(i, column int) float64 { return math.Copysign(0, -1) })
		pos := costHistory(t, 10, func(i, column int) float64 { return 0 })
		cachePage(t, neg, &slot, 50, 0)
		if hits := cachePage(t, pos, &slot, 50, 0); hits != 0 {
			t.Fatalf("+0 after −0: %d costs copied", hits)
		}
		if hits := cachePage(t, neg, &slot, 50, 0); hits != 0 {
			t.Fatalf("−0 after +0: %d costs copied", hits)
		}
		if hits := cachePage(t, neg, &slot, 50, 0); hits != 10*2 {
			t.Fatalf("−0 after −0: %d costs copied, want %d", hits, 10*2)
		}
	})
	t.Run("another history", func(t *testing.T) {
		// A reopened history of the same length whose value at one cached
		// index differs in its last bit.
		var slot costSlot
		h := costHistory(t, 60, measured)
		other := costHistory(t, 60, func(i, column int) float64 {
			if i == 40 && column == 1 {
				return math.Nextafter(measured(i, column), 0)
			}
			return measured(i, column)
		})
		cachePage(t, h, &slot, 50, 0)
		if hits := cachePage(t, other, &slot, 50, 0); hits != 50*2-1 {
			t.Fatalf("%d costs copied, want all %d but the changed one", hits, 50*2-1)
		}
	})
	t.Run("busy slot", func(t *testing.T) {
		// A reader that finds the slot taken renders without it and
		// leaves the record there as it was.
		var slot costSlot
		h := costHistory(t, 60, measured)
		cachePage(t, h, &slot, 50, 0)
		newest, bits := slot.rec.newest, slices.Clone(slot.rec.bits)
		appendCostRows(t, h, 60, 61, measured)
		slot.mu.Lock()
		hits := cachePage(t, h, &slot, 50, 0)
		slot.mu.Unlock()
		if hits != 0 {
			t.Fatalf("past a taken slot: %d costs copied", hits)
		}
		if slot.rec.newest != newest || !slices.Equal(slot.rec.bits, bits) {
			t.Fatalf("past a taken slot the record moved: newest %d → %d", newest, slot.rec.newest)
		}
		if hits := cachePage(t, h, &slot, 50, 0); hits != 49*2 {
			t.Fatalf("once free: %d costs copied, want %d", hits, 49*2)
		}
	})
}

// TestHistoryPageConcurrentReaders: readers of one history share its
// cost cache while a writer appends; whichever takes the slot reads
// through it, the others render without it, and every page is
// encoding/json's bytes for the snapshot it read. Run under -race.
func TestHistoryPageConcurrentReaders(t *testing.T) {
	var slot costSlot
	h := costHistory(t, 60, measured)
	h.SetRetain(64)
	const readers, reads = 4, 40
	var wg sync.WaitGroup
	wg.Add(readers + 1)
	go func() {
		defer wg.Done()
		for i := 60; i < 300; i++ {
			if err := h.Append(core.Observation{X: []float64{1e6, 0}, Costs: []float64{measured(i, 0), measured(i, 1)}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range readers {
		go func() {
			defer wg.Done()
			for range reads {
				p := pagePool.Get().(*historyPage)
				got, _, err := p.render(h, "main", tpch.QueryQ12.String(), 50, 0, &slot)
				want, wantErr := encodedPage("main", tpch.QueryQ12, &p.snap, 50, 0)
				if err != nil || wantErr != nil || !bytes.Equal(got, want) {
					t.Errorf("page differs from encoding/json (%v, %v) at byte %d", err, wantErr, firstDiff(got, want))
				}
				p.release()
			}
		}()
	}
	wg.Wait()
	cachePage(t, h, &slot, 50, 0)
	if hits := cachePage(t, h, &slot, 50, 0); hits != 50*2 {
		t.Fatalf("after the readers: %d costs copied, want %d", hits, 50*2)
	}
}
