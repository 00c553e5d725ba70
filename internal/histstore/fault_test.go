package histstore

import (
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// faultyWAL wraps a shard's real WAL handle and fails on command: a
// short write (half the frame reaches the file, then ENOSPC) or a
// rejected fsync.
type faultyWAL struct {
	walFile
	failWrite, failSync atomic.Bool
}

func (f *faultyWAL) Write(p []byte) (int, error) {
	if f.failWrite.Load() {
		n, _ := f.walFile.Write(p[:len(p)/2])
		return n, syscall.ENOSPC
	}
	return f.walFile.Write(p)
}

func (f *faultyWAL) Sync() error {
	if f.failSync.Load() {
		return syscall.EIO
	}
	return f.walFile.Sync()
}

// TestFailedAppendBreaksShard: a WAL write or fsync that fails must
// fail-stop the shard. If it kept accepting appends, a short write
// would leave a torn frame mid-log (recovery cuts there and drops every
// later, acknowledged frame) and a failed fsync would hand the rejected
// append's sequence number to the next one (recovery keeps the rejected
// observation and skips the acknowledged one as a duplicate).
func TestFailedAppendBreaksShard(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  Options
		fault func(*faultyWAL) *atomic.Bool
		// viaSync: the append succeeds (no fsync of its own) and the
		// fault fails the Store.Sync after it.
		viaSync bool
	}{
		{"short write", Options{}, func(f *faultyWAL) *atomic.Bool { return &f.failWrite }, false},
		{"failed per-append fsync", Options{Fsync: true}, func(f *faultyWAL) *atomic.Bool { return &f.failSync }, false},
		{"failed per-append fsync, GroupCommit spelling", Options{GroupCommit: true}, func(f *faultyWAL) *atomic.Bool { return &f.failSync }, false},
		{"failed Sync", Options{}, func(f *faultyWAL) *atomic.Bool { return &f.failSync }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir, tc.opts)
			h := openHist(t, s, "Q12")
			appendN(t, h, 0, 5)
			sh := s.shards["Q12"]
			fw := &faultyWAL{walFile: sh.wal.f}
			sh.mu.Lock()
			sh.wal.f = fw
			sh.mu.Unlock()

			fault := tc.fault(fw)
			fault.Store(true)
			err := h.Append(obsAt(5))
			if tc.viaSync {
				if err != nil {
					t.Fatal(err)
				}
				err = s.Sync()
			}
			if err == nil {
				t.Fatal("the injected fault was swallowed")
			}
			acked := h.Len() // 5, or 6 when the frame was written before the failing fsync
			// The disk recovers; the shard must not.
			fault.Store(false)
			for i := 6; i < 9; i++ {
				if err := h.Append(obsAt(i)); err == nil {
					t.Fatalf("append %d accepted after a WAL failure", i)
				}
			}
			if err := s.Sync(); err == nil {
				t.Fatal("Sync succeeded on a broken shard")
			}
			if h.Len() != acked {
				t.Fatalf("history grew to %d after the failure, want %d", h.Len(), acked)
			}
			s.Close()

			// Every acknowledged observation survives, in order and
			// byte-identical, followed by at most the one frame whose
			// append failed — never a later observation in its place.
			s2 := openStore(t, dir, Options{})
			defer s2.Close()
			h2 := openHist(t, s2, "Q12")
			if h2.Len() < acked || h2.Len() > 6 {
				t.Fatalf("recovered %d observations, want %d..6", h2.Len(), acked)
			}
			wantPrefix(t, h2, h2.Len())
		})
	}
}

// barrierMirror is a Mirror whose WaitFrame blocks until released, and
// reports when `want` waits are in flight at once.
type barrierMirror struct {
	want     int32
	inflight atomic.Int32
	all      chan struct{} // closed when want waits are in flight
	release  chan struct{}
}

func (m *barrierMirror) AppendFrame(string, uint64, []byte) {}

func (m *barrierMirror) WaitFrame(string, uint64) error {
	if m.inflight.Add(1) == m.want {
		close(m.all)
	}
	<-m.release
	return nil
}

// TestMirrorWaitsOverlap: the wait for the standby runs after the
// History lock is released, durable log or not — so N writers
// have N replication round trips in flight at once instead of one, and
// readers are not locked out for the duration of a round trip.
func TestMirrorWaitsOverlap(t *testing.T) {
	const writers = 6
	for name, opts := range map[string]Options{
		"none":        {},
		"fsync":       {Fsync: true},
		"groupcommit": {GroupCommit: true},
	} {
		t.Run(name, func(t *testing.T) {
			m := &barrierMirror{want: writers, all: make(chan struct{}), release: make(chan struct{})}
			opts.Mirror = m
			s := openStore(t, t.TempDir(), opts)
			defer s.Close()
			h := openHist(t, s, "Q12")
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					if err := h.Append(obsAt(w)); err != nil {
						t.Error(err)
					}
				}(w)
			}
			select {
			case <-m.all:
			case <-time.After(10 * time.Second):
				stuck := m.inflight.Load()
				close(m.release)
				wg.Wait()
				t.Fatalf("mirror waits serialized: %d of %d in flight", stuck, writers)
			}
			// Every wait is in flight and none has returned: a reader
			// must get through, and sees all the appends.
			read := make(chan int, 1)
			go func() { read <- h.Snapshot().Len() }()
			select {
			case n := <-read:
				if n != writers {
					t.Errorf("snapshot during the waits holds %d observations, want %d", n, writers)
				}
			case <-time.After(10 * time.Second):
				t.Error("Snapshot blocked behind a mirror wait")
			}
			close(m.release)
			wg.Wait()
		})
	}
}
