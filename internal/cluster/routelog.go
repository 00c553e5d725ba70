package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/framelog"
)

// RouteLog persists the epoch-versioned routing overrides to disk so a
// restarted node recovers the last table it committed *before* any
// gossip reaches it — a former owner whose federations were taken over
// while it was down must redirect, not serve, from the moment it boots.
//
// The format is a tiny append log of framelog frames (DESIGN.md
// "Framed logs"), each payload the JSON {"epoch": N, "overrides": {fed:
// memberID}}. On open the log replays every intact frame and truncates
// at the first torn or corrupt one, so a crash mid-append loses at most
// the record being written — and that record's table is re-committed by
// the next gossip exchange anyway. Appends are fsynced: table commits
// are rare (ownership changes only), so durability costs nothing
// measurable.
type RouteLog struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	size      int64
	epoch     uint64
	overrides map[string]string
	closed    bool
}

// routeRecord is the JSON payload of one frame.
type routeRecord struct {
	Epoch     uint64            `json:"epoch"`
	Overrides map[string]string `json:"overrides,omitempty"`
}

const (
	// maxRoutePayload bounds one record; a larger length field is
	// corruption, not an allocation request.
	maxRoutePayload = 1 << 20
	// routeLogCompactBytes triggers a rewrite keeping only the latest
	// record — the log's whole point is its last intact frame.
	routeLogCompactBytes = 1 << 16
)

// OpenRouteLog opens (creating if needed) the route log at path and
// recovers the last intact record. The parent directory is created.
func OpenRouteLog(path string) (*RouteLog, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("cluster: route log: %w", err)
	}
	l := &RouteLog{path: path}
	var err error
	l.f, l.size, _, err = framelog.OpenAppend(path, maxRoutePayload, func(_ int64, p []byte) error {
		var rec routeRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			return fmt.Errorf("%w: %v", framelog.ErrCorrupt, err)
		}
		// Frames are appended with monotonically increasing epochs, but
		// take the max anyway — concurrent committers can persist out of
		// order across a crash boundary.
		if rec.Epoch >= l.epoch {
			l.epoch = rec.Epoch
			l.overrides = rec.Overrides
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: route log %s: %w", path, err)
	}
	return l, nil
}

// Last returns the recovered (or most recently appended) table state:
// epoch 0 means the log holds nothing.
func (l *RouteLog) Last() (epoch uint64, overrides map[string]string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]string, len(l.overrides))
	for fed, id := range l.overrides {
		out[fed] = id
	}
	return l.epoch, out
}

// Append durably records one committed table. Epochs only move forward:
// an append at or below the last recorded epoch is a no-op (concurrent
// committers may persist out of order; the highest epoch is the one
// that must survive).
func (l *RouteLog) Append(epoch uint64, overrides map[string]string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("cluster: route log %s is closed", l.path)
	}
	if epoch <= l.epoch {
		return nil
	}
	payload, err := json.Marshal(routeRecord{Epoch: epoch, Overrides: overrides})
	if err != nil {
		return fmt.Errorf("cluster: route log: %w", err)
	}
	frame := framelog.Append(nil, payload)
	if l.size+int64(len(frame)) > routeLogCompactBytes {
		return l.compactLocked(epoch, overrides, frame)
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("cluster: route log %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("cluster: route log %s: %w", l.path, err)
	}
	l.size += int64(len(frame))
	l.epoch = epoch
	l.overrides = overrides
	return nil
}

// compactLocked rewrites the log as a single frame and swaps the open
// handle to the new file. Caller holds l.mu.
func (l *RouteLog) compactLocked(epoch uint64, overrides map[string]string, frame []byte) error {
	werr := framelog.WriteFileAtomic(l.path, func(w io.Writer) error {
		_, err := w.Write(frame)
		return err
	})
	// Reopen whether or not the write succeeded: a failed directory
	// fsync reports after the rename, and either file the path can name
	// is a whole log. Should the reopen fail, l.f is nil and every later
	// append fails loudly instead of landing in an unlinked file.
	l.f.Close()
	var err error
	l.f, err = os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if werr != nil {
		return fmt.Errorf("cluster: route log compact: %w", werr)
	}
	// The new table is durable from here.
	l.size, l.epoch, l.overrides = int64(len(frame)), epoch, overrides
	if err != nil {
		return fmt.Errorf("cluster: route log compact: %w", err)
	}
	return nil
}

// Close releases the file handle; later Appends fail.
func (l *RouteLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
