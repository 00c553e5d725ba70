package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ires"
	"repro/internal/tpch"
)

// escapeNames need every escape encoding/json writes: quotes and
// backslashes, HTML's <>&, control bytes with and without a short form,
// U+2028/U+2029, invalid UTF-8 and multi-byte runes it copies.
var escapeNames = []string{
	"", "main", `say "hi"\now`, "a<b>&c", "\b\f\n\r\t\x00\x1f\x7f",
	"line\u2028para\u2029", "bad\xffutf8\xc3", "héllo, 世界 🙂", "\xe2\x80",
}

// encodedResponse is what the reflection-driven encoder writes for r.
func encodedResponse(r *QueryResponse) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

// checkResponse holds appendQueryResponse to encoding/json: the same
// bytes after a prefix it must not touch, and an error exactly when
// encoding/json fails.
func checkResponse(t *testing.T, r *QueryResponse) {
	t.Helper()
	want, wantErr := encodedResponse(r)
	got, err := appendQueryResponse([]byte("prefix"), r)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%+v: appended error %v, encoding/json error %v", r, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("response differs\n got %q\nwant prefix%q", got, want)
	}
	msg := r.Federation + r.Node
	var eb bytes.Buffer
	_ = json.NewEncoder(&eb).Encode(ErrorResponse{Error: msg})
	if got := appendErrorBody(nil, msg); !bytes.Equal(got, eb.Bytes()) {
		t.Fatalf("error body differs\n got %q\nwant %q", got, eb.Bytes())
	}
	if got := appendErrorBody(nil, []byte(msg)); !bytes.Equal(got, eb.Bytes()) {
		t.Fatalf("error body from bytes differs\n got %q\nwant %q", got, eb.Bytes())
	}
}

func TestSubmitResponseMatchesEncodingJSON(t *testing.T) {
	floats := append(append([]float64(nil), edgeFloats...), math.NaN(), math.Inf(1), math.Inf(-1))
	for i, name := range escapeNames {
		for j, f := range floats {
			r := QueryResponse{
				Federation: name,
				Query:      "Q12",
				Plan:       PlanJSON{Query: name, JoinAtLeft: j%2 == 0, NodesLeft: j - 3, NodesRight: 1 << 40},
				ParetoSize: i, PlanSpace: -j, PlansEstimated: math.MaxInt,
				Coalesced: i%2 == 1,
				Node:      name,
				Epoch:     uint64(j) * math.MaxUint64 / 7,
			}
			// The value in each float field in turn, the others drawn
			// from the table too.
			fields := []*float64{&r.EstimatedTimeS, &r.EstimatedUSD, &r.MeasuredTimeS, &r.MeasuredUSD, &r.LatencyMS}
			for k, p := range fields {
				*p = floats[(j+k*7)%len(floats)]
			}
			for _, p := range fields {
				saved := *p
				*p = f
				checkResponse(t, &r)
				*p = saved
			}
		}
	}
}

// FuzzSubmitResponse: for any names, float bits (NaN and ±Inf included)
// and counts, the appended response is byte for byte what encoding/json
// writes, trailing newline included, and fails exactly when it does;
// an error body carrying any string is encoding/json's too.
func FuzzSubmitResponse(f *testing.F) {
	bits := math.Float64bits
	f.Add("main", "Q12", "", bits(0.25), bits(math.Copysign(0, -1)), bits(1e-7), bits(1e21), bits(5e-324), int64(3), uint64(0), true)
	f.Add(`q"uote`, "a<b>&c", "node\x01", bits(1<<53), bits(-1e-6), bits(123.456), bits(math.MaxFloat64), bits(0x1p-1030), int64(-7), uint64(9), false)
	f.Add("line\u2028sep", "bad\xffutf8", "世界", bits(math.NaN()), bits(1), bits(2), bits(3), bits(4), int64(0), uint64(1<<63), true)
	f.Add("x", "y", "z", bits(1), bits(math.Inf(-1)), bits(2), bits(3), bits(4), int64(1), uint64(2), false)
	f.Fuzz(func(t *testing.T, fed, query, node string, a, b, c, d, e uint64, n int64, epoch uint64, joinLeft bool) {
		r := QueryResponse{
			Federation:     fed,
			Query:          query,
			Plan:           PlanJSON{Query: node, JoinAtLeft: joinLeft, NodesLeft: int(n), NodesRight: int(n >> 7)},
			EstimatedTimeS: math.Float64frombits(a),
			EstimatedUSD:   math.Float64frombits(b),
			MeasuredTimeS:  math.Float64frombits(c),
			MeasuredUSD:    math.Float64frombits(d),
			ParetoSize:     int(n >> 3),
			PlanSpace:      int(^n),
			PlansEstimated: int(n),
			Coalesced:      !joinLeft,
			LatencyMS:      math.Float64frombits(e),
			Node:           node,
			Epoch:          epoch,
		}
		checkResponse(t, &r)
	})
}

// nanSched is a scheduler double whose decision carries one non-finite
// cost: field 0 and 1 the estimate's, 2 and 3 the measurement's.
type nanSched struct {
	*stubSched
	field int
	value float64
}

func (s *nanSched) DecideFromSweep(sw *ires.Sweep, pol ires.Policy) (*ires.Decision, error) {
	dec, err := s.stubSched.DecideFromSweep(sw, pol)
	if err != nil {
		return nil, err
	}
	dec.Estimated = append([]float64(nil), dec.Estimated...) // the sweep's row stays intact
	out := *dec.Outcome
	dec.Outcome = &out
	*[]*float64{&dec.Estimated[0], &dec.Estimated[1], &out.TimeS, &out.MoneyUSD}[s.field] = s.value
	return dec, nil
}

// TestSubmitNonFiniteIs500: a decision holding a value JSON cannot carry
// answers 500 with an error naming the federation, the query and the
// field — not 200 with an empty body — and counts as failed, not
// completed.
func TestSubmitNonFiniteIs500(t *testing.T) {
	for i, tc := range []struct {
		value float64
		want  string
	}{
		{math.NaN(), `federation "test", Q12: estimated_time_s is NaN, which JSON cannot carry`},
		{math.Inf(1), `federation "test", Q12: estimated_usd is +Inf, which JSON cannot carry`},
		{math.Inf(-1), `federation "test", Q12: measured_time_s is -Inf, which JSON cannot carry`},
		{math.NaN(), `federation "test", Q12: measured_usd is NaN, which JSON cannot carry`},
	} {
		sched := &nanSched{stubSched: &stubSched{}, field: i, value: tc.value}
		srv, err := NewWithSchedulers(Config{}, map[string]QueryScheduler{"test": sched}, tpch.AllQueries)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/queries", strings.NewReader(`{"query":"Q12"}`)))
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("field %d: status %d, body %q: %v", i, rec.Code, rec.Body, err)
		}
		if rec.Code != http.StatusInternalServerError || er.Error != tc.want {
			t.Errorf("field %d: status %d, error %q; want 500, %q", i, rec.Code, er.Error, tc.want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("field %d: Content-Type %q", i, ct)
		}
		st := srv.tenants["test"].stats
		if st.failed.Load() != 1 || st.completed.Load() != 0 {
			t.Errorf("field %d: failed %d, completed %d; want 1, 0", i, st.failed.Load(), st.completed.Load())
		}
	}
}

// TestScanRequestTakesCanonicalBodies: the bodies clients send — the
// benchmark's, midasload's, every field set, any whitespace — are
// scanned in place to json.Unmarshal's result, and every body outside
// the canonical grammar is left to json.Unmarshal.
func TestScanRequestTakesCanonicalBodies(t *testing.T) {
	full, err := json.Marshal(QueryRequest{
		Federation: "fedA", Query: "q13", Weights: []float64{0.25, 1e-7}, Constraints: []float64{1e21, -0.5},
		Strategy: "lex", LexOrder: []int{1, 0}, LexTolerance: 0.05, TimeoutMS: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		string(full),
		`{"query": "Q12", "weights": [1, 1]}`,
		`{"federation":"solo","query":"Q12","weights":[0.3,0.7]}`,
		" \t\r\n{ \"query\" : \"14\" , \"lex_order\" : [ ] , \"timeout_ms\" : -0 }\n ",
		`{}`,
		`{"weights":[-0.0,1E+2,2e-3,0.000]}`,
		`{"federation":"~ !#$%&'()*+,-./:;<=>?@[]^_{|}~","lex_order":[-9223372036854775808,9223372036854775807]}`,
	} {
		var got, want QueryRequest
		if !scanRequest(&got, []byte(body)) {
			t.Errorf("%s: not scanned", body)
			continue
		}
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(emptyAsNil(got), emptyAsNil(want)) {
			t.Errorf("%s: scanned %+v, json.Unmarshal %+v", body, got, want)
		}
	}
	for _, body := range []string{
		`{"query":"Q\u0031"}`, `{"query":"Q\"1"}`, `{"query":"Qé"}`, "{\"query\":\"Q\x7f\"}", "{\"query\":\"Q\t\"}",
		`{"Query":"Q12"}`, `{"QUERY":"Q12"}`, `{"unknown":1}`, `{"query":null}`, `{"weights":null}`, `null`,
		`{"query":"Q12","query":"Q13"}`, `{"weights":[1],"weights":[2]}`,
		`{"timeout_ms":1.0}`, `{"timeout_ms":1e3}`, `{"timeout_ms":9223372036854775808}`, `{"lex_order":[0.5]}`,
		`{"weights":[1e400]}`, `{"weights":[01]}`, `{"weights":[.5]}`, `{"weights":[1.]}`, `{"weights":[-]}`,
		`{"weights":[+1]}`, `{"weights":[1e]}`, `{"weights":[1,]}`, `{"weights":[,1]}`, `{"weights":[1 2]}`,
		`{"query":"Q12",}`, `{,"query":"Q12"}`, `{"query" "Q12"}`, `{"query":"Q12"} x`, `{"query":"Q12"}}`,
		`{"query":"Q12"`, `{"query":"Q12`, ``, ` `, `[]`, `{"query":true}`, `{"lex_tolerance":"1"}`,
	} {
		var r QueryRequest
		if scanRequest(&r, []byte(body)) {
			t.Errorf("%s: scanned as canonical into %+v", body, r)
		}
	}
}

// emptyAsNil maps empty slices to nil: a scan keeps its storage where a
// fresh decode of [] allocates an empty one.
func emptyAsNil(r QueryRequest) QueryRequest {
	if len(r.Weights) == 0 {
		r.Weights = nil
	}
	if len(r.Constraints) == 0 {
		r.Constraints = nil
	}
	if len(r.LexOrder) == 0 {
		r.LexOrder = nil
	}
	return r
}

// TestServeSubmitResponseBytes: a served submission's body is exactly
// what encoding/json writes for the response it decodes to, in
// standalone and cluster mode (node and epoch stamped).
func TestServeSubmitResponseBytes(t *testing.T) {
	tc := newTestCluster(t, 2, []string{"alpha"})
	standalone, err := NewWithSchedulers(Config{}, map[string]QueryScheduler{"alpha": &stubSched{}}, tpch.AllQueries)
	if err != nil {
		t.Fatal(err)
	}
	for _, srv := range []*Server{standalone, tc.servers[tc.ownerIdx(t, "alpha")]} {
		var resp bytes.Buffer
		if status := srv.ServeSubmit(context.Background(), []byte(`{"federation":"alpha","query":"Q12","weights":[1,2]}`), &resp); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, resp.String())
		}
		var r QueryResponse
		if err := json.Unmarshal(resp.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if want, _ := encodedResponse(&r); !bytes.Equal(resp.Bytes(), want) {
			t.Fatalf("body %q, encoding/json %q", resp.Bytes(), want)
		}
		if (srv.cluster != nil) != (r.Node != "" && r.Epoch != 0) {
			t.Errorf("node %q, epoch %d", r.Node, r.Epoch)
		}
	}
}
