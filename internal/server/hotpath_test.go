package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/tpch"
)

// raceEnabled is set by race_test.go when the race detector is compiled
// in: sync.Pool drops entries at random there, so allocation counts mean
// nothing.
var raceEnabled bool

// TestServeSubmitPooledConcurrent drives the embedded hot path from
// many goroutines (run with -race): every request decodes through a
// pooled scratch, so a response leaking another request's decoded
// fields or buffered body would show up as a wrong query/weights echo.
func TestServeSubmitPooledConcurrent(t *testing.T) {
	srv := newTestServer(t, &stubSched{}, Config{})
	const workers, perWorker = 8, 200
	queries := []string{"Q12", "Q13", "Q14", "Q17"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var resp bytes.Buffer
			for i := 0; i < perWorker; i++ {
				q := queries[(w+i)%len(queries)]
				// Distinct weights per request so cross-request scratch
				// contamination cannot produce an accidentally valid body.
				body := fmt.Sprintf(`{"query": %q, "weights": [%d, %d]}`, q, w+1, i+1)
				resp.Reset()
				if status := srv.ServeSubmit(context.Background(), []byte(body), &resp); status != http.StatusOK {
					t.Errorf("worker %d request %d: status %d: %s", w, i, status, resp.String())
					return
				}
				var qr QueryResponse
				if err := json.Unmarshal(resp.Bytes(), &qr); err != nil {
					t.Errorf("worker %d request %d: bad response: %v", w, i, err)
					return
				}
				if qr.Query != q {
					t.Errorf("worker %d request %d: response query %q, want %q", w, i, qr.Query, q)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestServeSubmitDecoderIsolation: a malformed body must fail its own
// request only; the next request that borrows the same pooled scratch
// (and the names and slices it kept) decodes cleanly.
func TestServeSubmitDecoderIsolation(t *testing.T) {
	srv := newTestServer(t, &stubSched{}, Config{})
	var resp bytes.Buffer
	good := []byte(`{"query": "Q12", "weights": [1, 1]}`)
	for i, bad := range [][]byte{
		[]byte(`{"query": "Q12"} trailing garbage`),
		[]byte(`{"query": "Q12", "weights": [1, 1]`), // truncated
		[]byte(`not json at all`),
		[]byte(``),
		[]byte(`{"query": "Q12"}{"query": "Q13"}`), // second value
	} {
		resp.Reset()
		if status := srv.ServeSubmit(context.Background(), bad, &resp); status != http.StatusBadRequest {
			t.Fatalf("bad body %d: status %d, want 400 (%s)", i, status, resp.String())
		}
		// The very next request through the (sole, hence same) pooled
		// scratch must decode cleanly.
		resp.Reset()
		if status := srv.ServeSubmit(context.Background(), good, &resp); status != http.StatusOK {
			t.Fatalf("good request after bad body %d: status %d: %s", i, status, resp.String())
		}
	}
	// Trailing whitespace is not garbage.
	resp.Reset()
	if status := srv.ServeSubmit(context.Background(), append(append([]byte(nil), good...), " \n\t "...), &resp); status != http.StatusOK {
		t.Fatalf("trailing whitespace rejected: %d: %s", status, resp.String())
	}
}

// TestAdmissionPerTenant: the admission queue is sharded per
// federation, so a hot tenant saturating its own queue must shed its
// own load (429) while the other tenant keeps serving (200).
func TestAdmissionPerTenant(t *testing.T) {
	hot := &stubSched{block: make(chan struct{}), started: make(chan struct{})}
	cold := &stubSched{}
	srv, err := NewWithSchedulers(Config{QueueDepth: 1},
		map[string]QueryScheduler{"hot": hot, "cold": cold}, tpch.AllQueries)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy hot's only admission slot with a request whose sweep
	// blocks until we release it.
	doneHot := make(chan struct{})
	go func() {
		defer close(doneHot)
		resp, body, err := tryPostQuery(ts.URL, QueryRequest{Federation: "hot", Query: "Q12", Weights: []float64{1, 1}})
		if err != nil {
			t.Error(err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("blocked hot request finished %d: %s", resp.StatusCode, body)
		}
	}()
	<-hot.started

	// Hot's queue is full: its next submission is shed...
	resp, body := postQuery(t, ts.URL, QueryRequest{Federation: "hot", Query: "Q12", Weights: []float64{1, 1}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hot overflow = %d, want 429: %s", resp.StatusCode, body)
	}
	// ...while cold — same server, same moment — still serves.
	resp, body = postQuery(t, ts.URL, QueryRequest{Federation: "cold", Query: "Q12", Weights: []float64{1, 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold tenant = %d, want 200 while hot is saturated: %s", resp.StatusCode, body)
	}

	close(hot.block)
	<-doneHot
	// With the slot released, hot serves again.
	resp, body = postQuery(t, ts.URL, QueryRequest{Federation: "hot", Query: "Q12", Weights: []float64{1, 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hot after release = %d: %s", resp.StatusCode, body)
	}
}
