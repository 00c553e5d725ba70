package server

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeRequest: whatever an earlier body did to a pooled
// serveScratch, the next decode behaves like a fresh json.Unmarshal
// (single-value semantics) of its own bytes — same verdict and, on
// success, the same request. A poisoned body never leaks into the next
// request that borrows the scratch.
func FuzzDecodeRequest(f *testing.F) {
	valid := `{"federation":"f","query":"Q12","weights":[1,2],"constraints":[3],"strategy":"lex","lex_order":[1,0],"lex_tolerance":0.1,"timeout_ms":5}`
	f.Add([]byte(valid), []byte(`{"query":"Q13"}`))
	f.Add([]byte(`{"query":"Q12"}}`), []byte(`{"query":"Q13"}`)) // stray closer after a whole value
	f.Add([]byte(`{"query":"Q12"} {"query":`), []byte(valid))    // second, torn value
	f.Add([]byte(`{"weights":[1,2,3`), []byte(`{"weights":null}`))
	f.Add([]byte(`{"query":"Q12"}   `), []byte(`  {"query":"Q14"}]`))
	f.Add([]byte(``), []byte(`null`))
	f.Add([]byte(`{"timeout_ms":"x"}`), []byte(`[]`))
	f.Fuzz(func(t *testing.T, poison, body []byte) {
		sc := servePool.New().(*serveScratch)
		_ = sc.decodeRequest(poison)
		err := sc.decodeRequest(body)
		var want QueryRequest
		wantErr := json.Unmarshal(body, &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("after %q, decodeRequest(%q) = %v; json.Unmarshal = %v", poison, body, err, wantErr)
		}
		if err != nil {
			return
		}
		// The pooled request keeps empty-but-allocated slices where a
		// fresh decode leaves nil.
		got := sc.req
		for _, s := range []*[]float64{&got.Weights, &got.Constraints, &want.Weights, &want.Constraints} {
			if len(*s) == 0 {
				*s = nil
			}
		}
		for _, s := range []*[]int{&got.LexOrder, &want.LexOrder} {
			if len(*s) == 0 {
				*s = nil
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %q, decodeRequest(%q) decoded %+v, want %+v", poison, body, got, want)
		}
	})
}
