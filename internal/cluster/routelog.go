package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
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
// The file holds framelog frames (DESIGN.md "Framed logs"), each payload
// the JSON {"epoch": N, "overrides": {fed: memberID}}. Every commit
// replaces the file whole with one frame (framelog.WriteFileAtomic), so
// a crash leaves either the old table or the new one, and no handle is
// held between commits. On open every intact frame is read and the
// highest epoch wins, so a log an older build appended to — several
// frames, perhaps a torn tail — still opens. Table commits are rare
// (ownership changes only), so the fsyncs cost nothing measurable.
type RouteLog struct {
	mu        sync.Mutex
	path      string
	epoch     uint64
	overrides map[string]string
}

// routeRecord is the JSON payload of one frame.
type routeRecord struct {
	Epoch     uint64            `json:"epoch"`
	Overrides map[string]string `json:"overrides,omitempty"`
}

// maxRoutePayload bounds one record; a larger length field is
// corruption, not an allocation request.
const maxRoutePayload = 1 << 20

// OpenRouteLog reads the route log at path, if there is one, and
// recovers its highest-epoch intact record. The parent directory is
// created.
func OpenRouteLog(path string) (*RouteLog, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("cluster: route log: %w", err)
	}
	l := &RouteLog{path: path}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return l, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: route log: %w", err)
	}
	defer f.Close()
	_, err = framelog.Scan(f, maxRoutePayload, framelog.TruncateTornTail, func(_ int64, p []byte) error {
		var rec routeRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			return fmt.Errorf("%w: %v", framelog.ErrCorrupt, err)
		}
		// A log appended by an older build holds every table it
		// committed; take the max anyway — concurrent committers could
		// persist out of order across a crash boundary.
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

// Last returns the recovered (or most recently committed) table state:
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

// Commit durably replaces the file with one committed table. Epochs
// only move forward: a commit at or below the last recorded epoch is a
// no-op (concurrent committers may persist out of order; the highest
// epoch is the one that must survive).
func (l *RouteLog) Commit(epoch uint64, overrides map[string]string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch <= l.epoch {
		return nil
	}
	payload, err := json.Marshal(routeRecord{Epoch: epoch, Overrides: overrides})
	if err != nil {
		return fmt.Errorf("cluster: route log: %w", err)
	}
	err = framelog.WriteFileAtomic(l.path, func(w io.Writer) error {
		_, err := w.Write(framelog.Append(nil, payload))
		return err
	})
	if err != nil {
		return fmt.Errorf("cluster: route log %s: %w", l.path, err)
	}
	l.epoch, l.overrides = epoch, overrides
	return nil
}
