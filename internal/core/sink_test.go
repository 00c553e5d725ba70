package core

import (
	"errors"
	"testing"
)

// recordingSink fakes a durable sink: Record stages the observation and
// hands out a ticket; Wait records which tickets were awaited. failAfter
// > 0 makes Record error once that many observations were recorded,
// waitErr makes every Wait fail (a lost fsync).
type recordingSink struct {
	hist      *History // when non-nil, WaitObservation reads it (lock-order probe)
	obs       []Observation
	waited    []uint64
	failAfter int
	waitErr   error
}

var errSinkFull = errors.New("sink full")

func (s *recordingSink) RecordObservation(o Observation) (uint64, error) {
	if s.failAfter > 0 && len(s.obs) >= s.failAfter {
		return 0, errSinkFull
	}
	// o is a view into the history, valid only for the call: keep a copy.
	s.obs = append(s.obs, Observation{X: append([]float64(nil), o.X...), Costs: append([]float64(nil), o.Costs...)})
	return uint64(len(s.obs) - 1), nil
}

func (s *recordingSink) WaitObservation(ticket uint64) error {
	if s.hist != nil {
		// Reading the history from Wait deadlocks if Append still holds
		// the write lock — this enforces the documented contract that
		// WaitObservation runs after the lock is released.
		_ = s.hist.Len()
	}
	s.waited = append(s.waited, ticket)
	return s.waitErr
}

func TestHistorySinkSeesAppendsInOrder(t *testing.T) {
	h := mustHistory(t, 1, "t")
	sink := &recordingSink{}
	h.SetSink(sink)
	for i := 0; i < 5; i++ {
		if err := h.Append(Observation{X: []float64{float64(i)}, Costs: []float64{float64(i) * 2}}); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.obs) != 5 {
		t.Fatalf("sink saw %d observations, want 5", len(sink.obs))
	}
	for i, o := range sink.obs {
		if o.X[0] != float64(i) || o.Costs[0] != float64(i)*2 {
			t.Fatalf("sink observation %d out of order: %+v", i, o)
		}
	}
	// Detach: further appends bypass the sink.
	h.SetSink(nil)
	if err := h.Append(Observation{X: []float64{9}, Costs: []float64{9}}); err != nil {
		t.Fatal(err)
	}
	if len(sink.obs) != 5 {
		t.Fatalf("detached sink still saw appends: %d", len(sink.obs))
	}
}

// TestHistoryPendingSinkPath: every ticket Record hands out is awaited,
// in issue order, after the history lock is released.
func TestHistoryPendingSinkPath(t *testing.T) {
	h := mustHistory(t, 1, "t")
	sink := &recordingSink{hist: h}
	h.SetSink(sink)
	for i := 0; i < 4; i++ {
		if err := h.Append(Observation{X: []float64{float64(i)}, Costs: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.obs) != 4 || len(sink.waited) != 4 {
		t.Fatalf("recorded %d / waited %d, want 4 / 4", len(sink.obs), len(sink.waited))
	}
	for i, tk := range sink.waited {
		if tk != uint64(i) {
			t.Fatalf("wait %d got ticket %d", i, tk)
		}
	}
}

func TestHistoryPendingErrorAbortsAppend(t *testing.T) {
	h := mustHistory(t, 1, "t")
	sink := &recordingSink{failAfter: 1}
	h.SetSink(sink)
	if err := h.Append(Observation{X: []float64{0}, Costs: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	err := h.Append(Observation{X: []float64{1}, Costs: []float64{1}})
	if !errors.Is(err, errSinkFull) {
		t.Fatalf("append error = %v, want errSinkFull", err)
	}
	// Write-ahead failed, so memory must not hold the observation, and
	// there is no ticket to wait on.
	if h.Len() != 1 || h.Version() != 1 {
		t.Fatalf("failed append reached memory: len %d version %d", h.Len(), h.Version())
	}
	if len(sink.waited) != 1 {
		t.Fatalf("WaitObservation called %d times, want once (for the append that succeeded)", len(sink.waited))
	}
}

func TestHistoryWaitErrorKeepsObservation(t *testing.T) {
	h := mustHistory(t, 1, "t")
	sink := &recordingSink{waitErr: errSinkFull}
	h.SetSink(sink)
	err := h.Append(Observation{X: []float64{1}, Costs: []float64{1}})
	if !errors.Is(err, errSinkFull) {
		t.Fatalf("append error = %v, want errSinkFull", err)
	}
	// A wait failure means "do not acknowledge durability", not "roll
	// back": the WAL frame was written before the wait, so memory must
	// match the log.
	if h.Len() != 1 || h.Version() != 1 {
		t.Fatalf("wait failure rolled back memory: len %d version %d", h.Len(), h.Version())
	}
}

func TestHistorySinkErrorAbortsAppend(t *testing.T) {
	h := mustHistory(t, 1, "t")
	h.SetSink(&recordingSink{failAfter: 2})
	var err error
	for i := 0; i < 3; i++ {
		err = h.Append(Observation{X: []float64{1}, Costs: []float64{1}})
	}
	if !errors.Is(err, errSinkFull) {
		t.Fatalf("append error = %v, want errSinkFull", err)
	}
	// Write-ahead: the failed append is not in memory, and the version
	// only advanced for the durable ones.
	if h.Len() != 2 {
		t.Fatalf("history len = %d after sink failure, want 2", h.Len())
	}
	if h.Version() != 2 {
		t.Fatalf("history version = %d, want 2", h.Version())
	}
	// Invalid observations are rejected before they reach the sink.
	sink := &recordingSink{}
	h.SetSink(sink)
	if err := h.Append(Observation{X: []float64{1, 2}, Costs: []float64{1}}); err == nil {
		t.Fatal("bad observation accepted")
	}
	if len(sink.obs) != 0 {
		t.Fatal("invalid observation reached the sink")
	}
}
