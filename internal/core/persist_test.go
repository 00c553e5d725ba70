package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestHistorySaveLoadRoundTrip(t *testing.T) {
	h := mustHistory(t, 2, "time", "money")
	rng := stats.NewRNG(1)
	if err := fillLinear(h, rng, 25, 0.5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSnapshot(h.Snapshot(), &buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != h.Len() || got.Dim() != h.Dim() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.Len(), got.Dim(), h.Len(), h.Dim())
	}
	gm, hm := got.Metrics(), h.Metrics()
	for i := range hm {
		if gm[i] != hm[i] {
			t.Fatalf("metrics differ: %v vs %v", gm, hm)
		}
	}
	for i := 0; i < h.Len(); i++ {
		a, b := h.At(i), got.At(i)
		for j := range a.X {
			if a.X[j] != b.X[j] {
				t.Fatalf("observation %d feature %d differs", i, j)
			}
		}
		for j := range a.Costs {
			if a.Costs[j] != b.Costs[j] {
				t.Fatalf("observation %d cost %d differs", i, j)
			}
		}
	}

	// Estimates over original and reloaded history are identical.
	est := mustEstimator(t, Config{MMax: 12})
	e1, err := est.EstimateCostValue(h, []float64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := est.EstimateCostValue(got, []float64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range e1.Metrics {
		if e1.Metrics[i].Value != e2.Metrics[i].Value {
			t.Fatal("reloaded history changes estimates")
		}
	}
}

func TestLoadHistoryRejectsGarbage(t *testing.T) {
	if _, err := LoadHistory(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadHistory(strings.NewReader(`{"version":99,"dim":1,"metrics":["t"]}`)); !errors.Is(err, ErrBadSnapshot) {
		t.Error("wrong version accepted")
	}
	if _, err := LoadHistory(strings.NewReader(`{"version":1,"dim":0,"metrics":["t"]}`)); !errors.Is(err, ErrBadSnapshot) {
		t.Error("zero dim accepted")
	}
	if _, err := LoadHistory(strings.NewReader(`{"version":1,"dim":1,"metrics":[]}`)); !errors.Is(err, ErrBadSnapshot) {
		t.Error("no metrics accepted")
	}
	// Observation shape mismatch.
	bad := `{"version":1,"dim":2,"metrics":["t"],"observations":[{"x":[1],"costs":[1]}]}`
	if _, err := LoadHistory(strings.NewReader(bad)); !errors.Is(err, ErrBadSnapshot) {
		t.Error("bad observation accepted")
	}
}

func TestSaveEmptyHistory(t *testing.T) {
	h := mustHistory(t, 1, "t")
	var buf bytes.Buffer
	if err := SaveSnapshot(h.Snapshot(), &buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("empty history round-trip has %d observations", got.Len())
	}
}
