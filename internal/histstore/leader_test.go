package histstore

import (
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// The durable-append rule — a waiter that is not covered leads the next
// fsync unless somebody already is — at its edges: a reader during a
// sync, a roll during one, a sync that fails, and wake-ups.

// gatedWAL is a segment handle whose Sync announces itself, parks until
// the gate opens, and then fails or goes to the file.
type gatedWAL struct {
	walFile
	entered chan struct{} // one token per Sync that began
	gate    chan struct{} // closed by open: Syncs return
	once    sync.Once
	fail    error
}

func (g *gatedWAL) open() { g.once.Do(func() { close(g.gate) }) }

func (g *gatedWAL) Sync() error {
	g.entered <- struct{}{}
	<-g.gate
	if g.fail != nil {
		return g.fail
	}
	return g.walFile.Sync()
}

// gate swaps the shard's handle for a gated one, which opens at the
// latest when the test ends: a failed test must not hang in Close.
func gate(t *testing.T, sh *shard, fail error) *gatedWAL {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	g := &gatedWAL{walFile: sh.wal.f, entered: make(chan struct{}, 16), gate: make(chan struct{}), fail: fail}
	sh.wal.f = g
	t.Cleanup(g.open)
	return g
}

// within fails the test unless fn returns inside ten seconds.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still blocked after 10 s", what)
	}
}

// TestFsyncDoesNotBlockReaders: with a covering fsync parked on the
// disk, a second append still gets its frame into the log and into the
// history, and a reader gets its snapshot — the fsync holds neither the
// History lock nor the shard's.
func TestFsyncDoesNotBlockReaders(t *testing.T) {
	eachDurable(t, func(t *testing.T, opts Options) {
		s := openStore(t, t.TempDir(), opts)
		t.Cleanup(func() { s.Close() })
		h := openHist(t, s, "Q12")
		g := gate(t, s.shards["Q12"], nil)
		var wg sync.WaitGroup
		appendAsync := func(i int) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := h.Append(obsAt(i)); err != nil {
					t.Error(err)
				}
			}()
		}
		appendAsync(0)
		within(t, "the first appender's fsync", func() { <-g.entered })
		appendAsync(1)
		within(t, "a second append and a snapshot behind a parked fsync", func() {
			for h.Snapshot().Len() < 2 {
				time.Sleep(time.Millisecond)
			}
		})
		select {
		case <-g.entered:
			t.Error("a second fsync began while the first was in flight")
		default:
		}
		g.open()
		within(t, "the appenders, once the disk answered", wg.Wait)
	})
}

// slowWAL delays every Sync, so that whatever may run during one does.
type slowWAL struct {
	walFile
	delay func() time.Duration
}

func (w *slowWAL) Sync() error {
	time.Sleep(w.delay())
	return w.walFile.Sync()
}

// alternating is a slowWAL delay: every other Sync takes slow, the rest
// nothing, so a slow one is overtaken by whatever a fast one lets run.
func alternating(slow time.Duration) func() time.Duration {
	var n atomic.Int64
	return func() time.Duration { return time.Duration(n.Add(1)%2) * slow }
}

// slowSegments makes the segment sh is on, and every one it rolls to, a
// slowWAL.
func slowSegments(sh *shard, delay func() time.Duration) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.wal.f = &slowWAL{walFile: sh.wal.f, delay: delay}
	sh.wal.create = func(path string) (walFile, error) {
		f, err := createSegment(path)
		if err != nil {
			return nil, err
		}
		return &slowWAL{walFile: f, delay: delay}, nil
	}
}

// TestRollUnderInFlightSync: a roll closes the handle an fsync issued
// outside the shard lock may be using. Writers cross a dozen segment
// boundaries while every other sync is slow: no append fails (a sync on a
// closed handle would break the shard), every acknowledged observation
// is in the reopened store in the order memory held it, and the
// directory is what the retention rule leaves.
func TestRollUnderInFlightSync(t *testing.T) {
	eachDurable(t, func(t *testing.T, opts Options) {
		const writers, perWriter = 4, 3 * testRetain
		opts.Retain = testRetain
		dir := t.TempDir()
		s := openStore(t, dir, opts)
		h := openHist(t, s, "Q12")
		slowSegments(s.shards["Q12"], alternating(2*time.Millisecond))
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if err := h.Append(obsAt(w*perWriter + i)); err != nil {
						t.Errorf("writer %d append %d: %v", w, i, err)
						return
					}
				}
			}(w)
		}
		within(t, "writers rolling under slow syncs", wg.Wait)
		const n = writers * perWriter
		live := h.Snapshot()
		if live.Len() != n {
			t.Fatalf("history counts %d, %d were acknowledged", live.Len(), n)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wantSegments(t, dir, "Q12", liveStarts(testRetain, n), n)
		s2 := openStore(t, dir, Options{Retain: testRetain})
		defer s2.Close()
		h2 := openHist(t, s2, "Q12")
		if h2.Len() != n || h2.Base() != live.Base() {
			t.Fatalf("recovered [%d, %d), live had [%d, %d)", h2.Base(), h2.Len(), live.Base(), n)
		}
		for i := live.Base(); i < n; i++ {
			if !sameBits(h2.At(i), live.At(i)) {
				t.Fatalf("observation %d: recovered %+v, acknowledged %+v", i, h2.At(i), live.At(i))
			}
		}
	})
}

// TestLeaderFailureReachesFollowers: the fsync one waiter issues for
// itself and the others fails. It and every waiter the sync did not
// cover get the error, a ticket an earlier sync covered is still
// acknowledged, and the shard takes no further append.
func TestLeaderFailureReachesFollowers(t *testing.T) {
	eachDurable(t, func(t *testing.T, opts Options) {
		const covered, waiters = 5, 4
		s := openStore(t, t.TempDir(), opts)
		t.Cleanup(func() { s.Close() })
		h := openHist(t, s, "Q12")
		appendN(t, h, 0, covered)
		sh := s.shards["Q12"]
		g := gate(t, sh, syscall.EIO)
		errs := make(chan error, waiters)
		for i := 0; i < waiters; i++ {
			go func() { errs <- h.Append(obsAt(covered + i)) }()
			if i == 0 {
				within(t, "the leader's fsync", func() { <-g.entered })
			}
		}
		// The followers' frames are in the log; they wait for the leader.
		within(t, "followers writing behind a parked fsync", func() {
			for h.Len() < covered+waiters {
				time.Sleep(time.Millisecond)
			}
		})
		g.open()
		for i := 0; i < waiters; i++ {
			var err error
			within(t, "a waiter of the failed fsync", func() { err = <-errs })
			if err == nil || !strings.Contains(err.Error(), syscall.EIO.Error()) {
				t.Fatalf("waiter %d of a failed fsync got %v, want the fsync's EIO", i, err)
			}
		}
		// Durability wins over a sticky error.
		if err := sh.WaitObservation(covered - 1); err != nil {
			t.Fatalf("a ticket covered before the failure: %v", err)
		}
		if err := h.Append(obsAt(covered + waiters)); err == nil {
			t.Fatal("append accepted after a failed fsync")
		}
		if h.Len() != covered+waiters {
			t.Fatalf("history grew to %d after the failure, want %d", h.Len(), covered+waiters)
		}
		if err := s.Sync(); err == nil {
			t.Fatal("Sync succeeded on a broken shard")
		}
	})
}

// TestNoLostWakeup: a follower whose frame landed after the leader's
// fsync began is not covered by it and must be woken to lead the next
// one. 64 writers against syncs that are alternately fast and slow all
// finish — and with Close in the middle of such a run, every append
// either returns nil and is in the reopened store, or returns an error;
// none stays parked.
func TestNoLostWakeup(t *testing.T) {
	eachDurable(t, func(t *testing.T, opts Options) {
		const writers, perWriter = 64, 200
		st, h := gcOpen(t, t.TempDir(), opts)
		defer st.Close()
		slowSegments(st.shards["q"], alternating(300*time.Microsecond))
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if err := h.Append(gcObs(w, i)); err != nil {
						t.Errorf("writer %d append %d: %v", w, i, err)
						return
					}
				}
			}(w)
		}
		within(t, "64 writers sharing fsyncs", wg.Wait)
		if h.Len() != writers*perWriter {
			t.Fatalf("history counts %d, want %d", h.Len(), writers*perWriter)
		}
	})
	eachDurable(t, func(t *testing.T, opts Options) {
		const writers = 64
		dir := t.TempDir()
		st, h := gcOpen(t, dir, opts)
		slowSegments(st.shards["q"], alternating(300*time.Microsecond))
		acked := make([]int, writers) // appends of writer w that returned nil
		var total atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for ; ; acked[w]++ {
					if err := h.Append(gcObs(w, acked[w])); err != nil {
						if s := err.Error(); !strings.Contains(s, "store closed") && !strings.Contains(s, "file already closed") {
							t.Errorf("writer %d: %v", w, err)
						}
						return
					}
					total.Add(1)
				}
			}(w)
		}
		for total.Load() < 500 {
			time.Sleep(time.Millisecond)
		}
		within(t, "Close under 64 writers", func() { st.Close() })
		within(t, "the writers Close cut off", wg.Wait)
		st2, h2 := gcOpen(t, dir, Options{})
		defer st2.Close()
		seen := make([]int, writers)
		for i := 0; i < h2.Len(); i++ {
			o := h2.At(i)
			if w := int(o.X[0]); int(o.X[1]) != seen[w] {
				t.Fatalf("writer %d out of order after recovery: got %v, want %d", w, o.X[1], seen[w])
			} else {
				seen[w]++
			}
		}
		for w := range acked {
			if seen[w] < acked[w] {
				t.Errorf("writer %d: %d appends acknowledged, %d recovered", w, acked[w], seen[w])
			}
		}
	})
}
