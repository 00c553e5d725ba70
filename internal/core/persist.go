package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// History persistence: a versioned JSON snapshot of the whole log.
//
// internal/histstore keeps live histories in an append-only WAL and
// uses this document, with zero observations, as each shard's
// snapshot.json shape header. A document saved by any earlier release
// can still be dropped in as a shard's snapshot.json: the first open
// folds its observations into the shard's WAL. On its own the document
// is a point-in-time file with no durability for later appends and no
// crash story — keep live histories in a histstore.Store (see
// ires.SchedulerConfig.Store).

// persistVersion is bumped on incompatible format changes.
const persistVersion = 1

// ErrBadSnapshot is returned when a snapshot fails validation.
var ErrBadSnapshot = errors.New("core: invalid history snapshot")

type historySnapshot struct {
	Version      int           `json:"version"`
	Dim          int           `json:"dim"`
	Metrics      []string      `json:"metrics"`
	Observations []obsSnapshot `json:"observations"`
}

type obsSnapshot struct {
	X     []float64 `json:"x"`
	Costs []float64 `json:"costs"`
}

// SaveSnapshot writes a point-in-time history snapshot as versioned
// JSON. It takes an already-captured snapshot, so the write is safe
// while other goroutines append. The document has no notion of a base:
// it holds the observations the snapshot holds, and loads as a history
// that starts with them.
func SaveSnapshot(s *Snapshot, w io.Writer) error {
	snap := historySnapshot{
		Version:      persistVersion,
		Dim:          s.Dim(),
		Metrics:      s.Metrics(),
		Observations: make([]obsSnapshot, len(s.obs)),
	}
	for i, o := range s.obs {
		snap.Observations[i] = obsSnapshot{X: o.X, Costs: o.Costs}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("core: saving history: %w", err)
	}
	return nil
}

// LoadHistory reads a document written by SaveSnapshot, validating
// every observation against the declared dimensions.
func LoadHistory(r io.Reader) (*History, error) {
	var snap historySnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: loading history: %w", err)
	}
	if snap.Version != persistVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadSnapshot, snap.Version, persistVersion)
	}
	h, err := NewHistory(snap.Dim, snap.Metrics...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	for i, o := range snap.Observations {
		if err := h.Append(Observation{X: o.X, Costs: o.Costs}); err != nil {
			return nil, fmt.Errorf("%w: observation %d: %v", ErrBadSnapshot, i, err)
		}
	}
	return h, nil
}
