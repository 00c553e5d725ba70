package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
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
	for i := 0; i < 120; i++ {
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
	srv, err := NewWithSchedulers(Config{}, map[string]QueryScheduler{fed: &stubSched{hist: h}}, tpch.AllQueries)
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()

	check := func(limit, offset string) {
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
	// Bounded: pages that stop at the base, and ones wholly below it.
	h.SetRetain(40)
	if h.Snapshot().Base() == 0 {
		t.Fatal("SetRetain dropped nothing")
	}
	pages()
	base := h.Snapshot().Base()
	n := h.Snapshot().Len()
	check("1000", strconv.Itoa(n-base-3)) // three held, the page stops at the base
	check("3", strconv.Itoa(n-base-3))    // exactly down to the base
	check("2", strconv.Itoa(n-base))      // starts at the base: empty
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestHistoryPageNonFiniteIs500: a page holding a value JSON cannot
// carry answers 500 with an error that names the federation, the query
// and the observation — not 200 with an empty body. A page that skips
// the value is served.
func TestHistoryPageNonFiniteIs500(t *testing.T) {
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
		if err := h.Append(core.Observation{X: x, Costs: costs}); err != nil {
			t.Fatal(err)
		}
	}
	handler := newTestServer(t, stub, Config{}).Handler()
	get := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/history/Q13"+query, nil))
		return rec
	}
	for query, want := range map[string]string{
		"":                  `federation "test", Q13, observation 3: costs: value 0 is NaN`,
		"?offset=2":         `federation "test", Q13, observation 1: x: value 2 is -Inf`,
		"?offset=2&limit=1": "",
		"?limit=1":          "",
	} {
		rec := get(query)
		if want == "" {
			if rec.Code != http.StatusOK {
				t.Errorf("%q skips the non-finite values: status %d: %s", query, rec.Code, rec.Body)
			}
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("%q: status %d, body %q: %v", query, rec.Code, rec.Body, err)
		}
		if rec.Code != http.StatusInternalServerError || !strings.Contains(er.Error, want) {
			t.Errorf("%q: status %d, error %q; want 500 naming %q", query, rec.Code, er.Error, want)
		}
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

// FuzzHistoryPage: for any observation values (raw bits, NaN and ±Inf
// included), names and paging, the appended page is byte for byte what
// encoding/json writes, and fails exactly when encoding/json does.
func FuzzHistoryPage(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(edgeFloats...), "main", "time_s", uint16(50), uint16(0), uint8(0))
	f.Add(seed(1e15, 1e15, 1e15, math.Copysign(0, -1), 3, 1e-7, 1e21), "a<b>&c", "m ", uint16(3), uint16(1), uint8(2))
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
		for i := 0; i+5 <= len(vals); i += 5 {
			if err := h.Append(core.Observation{X: vals[i : i+3], Costs: vals[i+3 : i+5]}); err != nil {
				t.Fatal(err)
			}
		}
		h.SetRetain(int(retain))
		snap := h.Snapshot()
		want, wantErr := encodedPage(fed, tpch.QueryQ12, snap, int(limit), int(offset))

		p := pagePool.Get().(*historyPage)
		defer p.release()
		got, _, err := p.render(h, fed, tpch.QueryQ12.String(), int(limit), int(offset))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("render error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("page differs at byte %d\n got %q\nwant %q", firstDiff(got, want), got, want)
		}
	})
}
