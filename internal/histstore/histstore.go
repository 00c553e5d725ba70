// Package histstore is the durable execution-history store: the state
// DREAM's estimation quality is made of, kept alive across restarts,
// crashes and drains.
//
// A Store owns one root directory and shards it by history name (the
// serving layer uses one Store per federation and one shard per query).
// Each shard is
//
//	<root>/<name>/snapshot.json   compacting snapshot (the
//	                              core.SaveSnapshot document, see
//	                              internal/core/persist.go)
//	<root>/<name>/wal.log         CRC-framed append-only WAL of the
//	                              observations since that snapshot
//
// Appends flow in through core.HistorySink: OpenHistory returns a
// *core.History wired so every Append lands in the WAL before it
// becomes visible in memory (write-ahead). Checkpoint atomically
// replaces the snapshot with a newer point-in-time view and compacts
// the WAL down to the uncovered suffix.
//
// Recovery is deterministic and torn-tail-tolerant: replay = snapshot +
// WAL suffix, with frames already covered by the snapshot skipped by
// sequence number and the log truncated at the first corrupt frame. A
// recovered history holds byte-identical observations in identical
// order to the history that wrote it, so DREAM's window fit — and every
// estimate derived from it — is identical too.
package histstore

import (
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/framelog"
	"repro/internal/metrics"
)

const (
	snapshotName = "snapshot.json"
	walName      = "wal.log"
)

// Default group-commit knobs; see Options.
const (
	// DefaultCommitBatchSize fsyncs early once this many appends are
	// buffered, bounding how much acknowledged-but-unsynced work one
	// flush covers.
	DefaultCommitBatchSize = 128
)

// Options tunes a Store.
type Options struct {
	// Fsync syncs the WAL file after every appended record: durable
	// against machine crashes at a large per-append cost. Without it
	// (the default) an append survives any process crash — the write
	// has left the process before Append returns — but sits in the OS
	// page cache until the kernel flushes it.
	Fsync bool
	// GroupCommit provides Fsync's machine-crash durability at a
	// fraction of its cost: appends land in the WAL immediately but the
	// fsync is issued by a per-shard committer goroutine that coalesces
	// every append buffered since the previous flush into one sync. An
	// append is only acknowledged — Append on the shard's History only
	// returns — after the fsync covering it has returned, so no
	// acknowledged write can be lost to a crash, exactly as with Fsync.
	// When set, Fsync's per-append sync is skipped (the group fsync
	// supersedes it).
	GroupCommit bool
	// CommitInterval is the committer's max-delay: how long it waits
	// for companion appends before issuing the fsync. The default (<=
	// 0) adds no delay at all — the committer syncs as soon as it is
	// free, and batches form naturally from the appends that arrive
	// while the previous fsync is in flight. A positive interval
	// trades per-append latency for larger batches, which only pays
	// off on devices whose sync cost dwarfs the wait (e.g. spinning
	// disks).
	CommitInterval time.Duration
	// CommitBatchSize is the committer's max-batch: once this many
	// appends are waiting, the fsync is issued without waiting out
	// CommitInterval. 0 defaults to DefaultCommitBatchSize.
	CommitBatchSize int
	// Mirror, when non-nil, observes every WAL append for replication:
	// AppendFrame is invoked under the shard lock immediately after the
	// frame reaches the local WAL (so mirror order is exactly WAL
	// order) with the raw on-disk frame bytes — the mirror must copy
	// them before returning and must not block. WaitFrame is invoked
	// outside the shard lock before the append is acknowledged; a
	// mirror that replicates synchronously blocks there until the
	// frame is on the standby (or it has decided to degrade).
	Mirror Mirror
	// Metrics, when non-nil, registers the store's health instruments
	// (WAL append latency, checkpoint duration and failures, recovery
	// time and recovered observation counts) on the given registry,
	// labeled store=MetricsStore. Purely observational: a metered store
	// persists and recovers byte-identical state to an unmetered one.
	Metrics *metrics.Registry
	// MetricsStore is the value of the "store" label on every series
	// this store emits; empty defaults to the base name of the root
	// directory (the serving layer's per-tenant directory name).
	MetricsStore string
}

// Mirror receives a copy of every WAL append; see Options.Mirror.
// internal/cluster.Replicator is the production implementation.
type Mirror interface {
	// AppendFrame delivers one raw WAL frame. Called under the shard
	// lock: must copy frame and return without blocking.
	AppendFrame(shard string, seq uint64, frame []byte)
	// WaitFrame blocks until the frame with sequence seq is replicated
	// (or replication for the shard has been abandoned). Called outside
	// the shard lock, after local durability.
	WaitFrame(shard string, seq uint64) error
}

// Store is a root directory of named, independently recoverable
// history shards. All methods are safe for concurrent use.
type Store struct {
	root string
	opts Options
	obs  *storeObs // nil when Options.Metrics is unset

	mu     sync.Mutex
	shards map[string]*shard

	// Replica shards: WAL files this store appends raw mirrored frames
	// to without ever opening them as histories (the standby half of
	// cluster replication). Keyed by shard name, lazily initialised.
	replMu   sync.Mutex
	replicas map[string]*replica
}

// storeObs bundles the store's bound instruments, shared by every
// shard.
type storeObs struct {
	walAppendSeconds   *metrics.Histogram
	checkpointSeconds  *metrics.Histogram
	checkpoints        *metrics.Counter
	checkpointFailures *metrics.Counter
	recoverySeconds    *metrics.Histogram
	recoveredObs       *metrics.Counter
	tornTails          *metrics.Counter
	commitBatch        *metrics.Histogram
	fsyncsAvoided      *metrics.Counter
}

// newStoreObs registers the store's instruments; see Options.Metrics.
func newStoreObs(reg *metrics.Registry, store string) *storeObs {
	// Appends are ~1 µs, checkpoints and recoveries span ms to seconds;
	// two bucket ladders keep both ends readable.
	appendBuckets := metrics.ExponentialBuckets(1e-6, 4, 12) // 1 µs .. ~4 s
	fileOpBuckets := metrics.ExponentialBuckets(1e-4, 4, 10) // 100 µs .. ~26 s
	return &storeObs{
		walAppendSeconds: reg.HistogramVec("midas_histstore_wal_append_seconds",
			"Latency of one write-ahead WAL append (including fsync when enabled).",
			appendBuckets, "store").With(store),
		checkpointSeconds: reg.HistogramVec("midas_histstore_checkpoint_seconds",
			"Duration of one shard checkpoint (snapshot replace + WAL compaction).",
			fileOpBuckets, "store").With(store),
		checkpoints: reg.CounterVec("midas_histstore_checkpoints_total",
			"Completed shard checkpoints (no-op checkpoints included).",
			"store").With(store),
		checkpointFailures: reg.CounterVec("midas_histstore_checkpoint_failures_total",
			"Shard checkpoints that failed.",
			"store").With(store),
		recoverySeconds: reg.HistogramVec("midas_histstore_recovery_seconds",
			"Duration of one shard open (snapshot load + WAL replay).",
			fileOpBuckets, "store").With(store),
		recoveredObs: reg.CounterVec("midas_histstore_recovered_observations_total",
			"Observations recovered from durable state across shard opens.",
			"store").With(store),
		tornTails: reg.CounterVec("midas_histstore_torn_tails_total",
			"WAL tails truncated at a torn or corrupt frame during recovery.",
			"store").With(store),
		commitBatch: reg.HistogramVec("midas_histstore_commit_batch_size",
			"Appends acknowledged by one group-commit fsync; a mean near 1 means group commit is not coalescing.",
			metrics.ExponentialBuckets(1, 2, 11), // 1 .. 1024
			"store").With(store),
		fsyncsAvoided: reg.CounterVec("midas_histstore_fsyncs_avoided_total",
			"Fsyncs the per-append policy would have issued that group commit coalesced away.",
			"store").With(store),
	}
}

// Open creates (if needed) the root directory and returns a Store over
// it. Shards are recovered lazily, on first OpenHistory.
func Open(root string, opts Options) (*Store, error) {
	if root == "" {
		return nil, errors.New("histstore: empty root directory")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("histstore: %w", err)
	}
	if opts.GroupCommit && opts.CommitBatchSize <= 0 {
		opts.CommitBatchSize = DefaultCommitBatchSize
	}
	s := &Store{root: root, opts: opts, shards: make(map[string]*shard)}
	if opts.Metrics != nil {
		label := opts.MetricsStore
		if label == "" {
			label = filepath.Base(root)
		}
		s.obs = newStoreObs(opts.Metrics, label)
	}
	return s, nil
}

// Root reports the store's root directory.
func (s *Store) Root() string { return s.root }

// shardDir maps a shard name to its directory; names are path-escaped
// so any query or tenant name is a single safe path element.
func (s *Store) shardDir(name string) string {
	return filepath.Join(s.root, url.PathEscape(name))
}

// OpenHistory opens (recovering, if durable state exists) or creates
// the named shard and returns its live history: appends to the returned
// History are written ahead to the shard's WAL, and the observations
// recovered from snapshot + WAL are already in it. Repeated calls with
// the same name return the same *core.History. dim and metrics must
// match any previously persisted state.
func (s *Store) OpenHistory(name string, dim int, metrics []string) (*core.History, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh, ok := s.shards[name]; ok {
		return sh.hist, nil
	}
	// A standby promoting this shard (takeover) stops mirroring it the
	// moment it becomes a live history; release the replica handle so
	// the open owns the WAL file exclusively.
	s.closeReplica(name)
	sh, err := s.openShard(name, dim, metrics)
	if err != nil {
		return nil, err
	}
	s.shards[name] = sh
	return sh.hist, nil
}

func (s *Store) openShard(name string, dim int, metricNames []string) (*shard, error) {
	began := time.Now()
	dir := s.shardDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("histstore: shard %q: %w", name, err)
	}
	// Leftover temp files are failed checkpoints; the durable state
	// they were meant to replace is still intact.
	_ = os.Remove(filepath.Join(dir, snapshotName+framelog.TmpSuffix))
	_ = os.Remove(filepath.Join(dir, walName+framelog.TmpSuffix))

	h, snapCount, err := loadSnapshot(filepath.Join(dir, snapshotName), dim, metricNames)
	if err != nil {
		return nil, fmt.Errorf("histstore: shard %q: %w", name, err)
	}
	// A torn tail (a crash mid-write) is dropped, so the next append
	// starts on a clean frame boundary.
	wal, _, torn, err := framelog.OpenAppend(filepath.Join(dir, walName), maxFramePayload, func(_ int64, p []byte) error {
		seq, o, err := decodePayload(p)
		if err != nil {
			return err
		}
		if seq < uint64(h.Len()) {
			// Already applied: either covered by the snapshot (a
			// checkpoint renamed the new snapshot but crashed before
			// compacting the WAL) or a duplicate frame (handoff and
			// replication streams may deliver overlapping suffixes).
			// Replay is idempotent: skip, don't fail.
			return nil
		}
		// A frame from the future, though: these frames passed their
		// CRC, so a sequence gap is not a torn write — it means
		// observations between h.Len() and seq are missing (a store
		// opened with the wrong configuration, or genuine data loss),
		// and truncating would destroy good data. Fail the open instead.
		if seq > uint64(h.Len()) {
			return fmt.Errorf("wal sequence gap: frame %d, history has %d observations", seq, h.Len())
		}
		return h.Append(o)
	})
	if err != nil {
		return nil, fmt.Errorf("histstore: shard %q: replaying wal: %w", name, err)
	}
	if torn && s.obs != nil {
		s.obs.tornTails.Inc()
	}
	sh := &shard{
		name:      name,
		dir:       dir,
		opts:      s.opts,
		obs:       s.obs,
		hist:      h,
		wal:       wal,
		nextSeq:   uint64(h.Len()),
		snapCount: snapCount,
	}
	if s.opts.GroupCommit {
		// Everything replayed so far is durable (it was read back off
		// disk), so the committer starts with an empty pending window.
		sh.gcSynced = sh.nextSeq
		sh.gcCond = sync.NewCond(&sh.gcMu)
		sh.gcKick = make(chan struct{}, 1)
		sh.gcFull = make(chan struct{}, 1)
		sh.gcStop = make(chan struct{})
		sh.gcDone = make(chan struct{})
		go sh.commitLoop()
	}
	h.SetSink(sh)
	if s.obs != nil {
		s.obs.recoverySeconds.Observe(time.Since(began).Seconds())
		s.obs.recoveredObs.Add(float64(h.Len()))
	}
	return sh, nil
}

// loadSnapshot reads the shard snapshot if present (validating its
// shape against the requested one) or starts an empty history.
func loadSnapshot(path string, dim int, metrics []string) (*core.History, uint64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		h, err := core.NewHistory(dim, metrics...)
		return h, 0, err
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	h, err := core.LoadHistory(f)
	if err != nil {
		return nil, 0, err
	}
	if h.Dim() != dim {
		return nil, 0, fmt.Errorf("snapshot has dim %d, want %d", h.Dim(), dim)
	}
	hm := h.Metrics()
	if len(hm) != len(metrics) {
		return nil, 0, fmt.Errorf("snapshot has %d metrics, want %d", len(hm), len(metrics))
	}
	for i := range hm {
		if hm[i] != metrics[i] {
			return nil, 0, fmt.Errorf("snapshot metric %d is %q, want %q", i, hm[i], metrics[i])
		}
	}
	return h, uint64(h.Len()), nil
}

// Checkpoint compacts the named shard: the snapshot file is atomically
// replaced with snap (write temp, fsync, rename) and the WAL is
// rewritten down to the records snap does not cover. snap must be a
// snapshot of the history OpenHistory returned for this shard. A crash
// at any point leaves a recoverable shard: replay skips WAL records the
// surviving snapshot already covers.
func (s *Store) Checkpoint(name string, snap *core.Snapshot) error {
	s.mu.Lock()
	sh := s.shards[name]
	s.mu.Unlock()
	if sh == nil {
		return fmt.Errorf("histstore: checkpoint of unopened shard %q", name)
	}
	return sh.checkpoint(snap)
}

// CheckpointAll compacts every open shard against its history's current
// snapshot.
func (s *Store) CheckpointAll() error {
	s.mu.Lock()
	shards := make([]*shard, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.Unlock()
	for _, sh := range shards {
		if err := sh.checkpoint(sh.hist.Snapshot()); err != nil {
			return err
		}
	}
	return nil
}

// Close stops every shard's group committer (after one final covering
// fsync, so no acknowledged-in-flight append is abandoned) and closes
// every open shard's WAL handle. Appends to histories opened through
// the store fail afterwards (and, per the write-ahead contract, leave
// the in-memory history unchanged). Checkpoint first: Close does not
// compact.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for name, sh := range s.shards {
		if sh.gcCond != nil {
			close(sh.gcStop)
			<-sh.gcDone
			sh.gcMu.Lock()
			sh.gcClosed = true
			sh.gcCond.Broadcast()
			sh.gcMu.Unlock()
		}
		sh.mu.Lock()
		if err := sh.wal.Close(); err != nil && first == nil {
			first = err
		}
		sh.mu.Unlock()
		delete(s.shards, name)
	}
	s.replMu.Lock()
	for name, r := range s.replicas {
		if err := r.f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.replicas, name)
	}
	s.replMu.Unlock()
	return first
}

// shard is one named history's durable state. It implements
// core.HistorySink, so the History it recovered writes every new
// observation through it.
type shard struct {
	name string
	dir  string
	opts Options
	obs  *storeObs // nil when the store is unmetered
	hist *core.History

	mu        sync.Mutex
	wal       *os.File
	buf       []byte // frame scratch, reused across appends
	nextSeq   uint64 // sequence of the next record to append
	snapCount uint64 // observations covered by snapshot.json
	// broken, once set, fails every subsequent append and checkpoint:
	// the WAL handle can no longer be trusted to reach durable storage
	// (e.g. the post-compaction reopen failed, leaving the handle on
	// the replaced inode), and acknowledging writes would silently
	// break the write-ahead contract.
	broken error

	// Group-commit state; initialised (and the committer goroutine
	// started) only when Options.GroupCommit is set. Lock order is
	// sh.mu → gcMu, never the reverse: the committer and the append
	// path take gcMu while holding sh.mu, waiters take gcMu alone.
	gcMu     sync.Mutex
	gcCond   *sync.Cond    // broadcast on gcSynced / gcErr / gcClosed changes
	gcSynced uint64        // sequences below this are covered by an fsync
	gcErr    error         // sticky first group-fsync failure
	gcClosed bool          // Close ran; no further fsync will ever come
	gcKick   chan struct{} // buffered(1): un-synced appends exist
	gcFull   chan struct{} // buffered(1): max-batch reached, skip the delay
	gcStop   chan struct{}
	gcDone   chan struct{}
}

var _ core.PendingSink = (*shard)(nil)

// RecordObservation implements core.HistorySink: frame the observation
// and append it to the WAL (write-ahead — the caller only makes the
// observation visible in memory after this returns nil). It is called
// with the owning History's lock held, which makes WAL order identical
// to in-memory order by construction.
func (sh *shard) RecordObservation(o core.Observation) error {
	if sh.opts.GroupCommit {
		// Direct callers get the same durability as the pending path:
		// write, then block until the covering group fsync returns.
		ticket, err := sh.RecordObservationPending(o)
		if err != nil {
			return err
		}
		return sh.WaitObservation(ticket)
	}
	sh.mu.Lock()
	if sh.broken != nil {
		sh.mu.Unlock()
		return fmt.Errorf("histstore: shard unusable: %w", sh.broken)
	}
	var began time.Time
	if sh.obs != nil {
		began = time.Now()
	}
	sh.buf = appendFrame(sh.buf[:0], sh.nextSeq, o)
	if _, err := sh.wal.Write(sh.buf); err != nil {
		sh.mu.Unlock()
		return fmt.Errorf("histstore: wal append: %w", err)
	}
	if sh.opts.Fsync {
		if err := sh.wal.Sync(); err != nil {
			sh.mu.Unlock()
			return fmt.Errorf("histstore: wal fsync: %w", err)
		}
	}
	seq := sh.nextSeq
	sh.nextSeq++
	if sh.opts.Mirror != nil {
		sh.opts.Mirror.AppendFrame(sh.name, seq, sh.buf)
	}
	if sh.obs != nil {
		sh.obs.walAppendSeconds.Observe(time.Since(began).Seconds())
	}
	sh.mu.Unlock()
	if sh.opts.Mirror != nil {
		return sh.opts.Mirror.WaitFrame(sh.name, seq)
	}
	return nil
}

// RecordObservationPending implements core.PendingSink: append the frame
// to the WAL (write-ahead, under the owning History's lock like
// RecordObservation) but defer durability to the covering group fsync,
// which the caller waits for via WaitObservation after releasing the
// History lock. Without GroupCommit the store has no deferred-durability
// window, so this is RecordObservation with a no-op ticket.
func (sh *shard) RecordObservationPending(o core.Observation) (uint64, error) {
	if !sh.opts.GroupCommit {
		return 0, sh.RecordObservation(o)
	}
	sh.mu.Lock()
	if sh.broken != nil {
		sh.mu.Unlock()
		return 0, fmt.Errorf("histstore: shard unusable: %w", sh.broken)
	}
	var began time.Time
	if sh.obs != nil {
		began = time.Now()
	}
	sh.buf = appendFrame(sh.buf[:0], sh.nextSeq, o)
	if _, err := sh.wal.Write(sh.buf); err != nil {
		sh.mu.Unlock()
		return 0, fmt.Errorf("histstore: wal append: %w", err)
	}
	ticket := sh.nextSeq
	sh.nextSeq++
	if sh.opts.Mirror != nil {
		sh.opts.Mirror.AppendFrame(sh.name, ticket, sh.buf)
	}
	if sh.obs != nil {
		sh.obs.walAppendSeconds.Observe(time.Since(began).Seconds())
	}
	sh.gcMu.Lock()
	full := ticket+1-sh.gcSynced >= uint64(sh.opts.CommitBatchSize)
	sh.gcMu.Unlock()
	sh.mu.Unlock()
	// Wake the committer; when the batch is full, also tell it to skip
	// its max-delay. Both channels are buffered(1), so a pending token
	// means "state already reflects this" and dropping is correct.
	select {
	case sh.gcKick <- struct{}{}:
	default:
	}
	if full {
		select {
		case sh.gcFull <- struct{}{}:
		default:
		}
	}
	return ticket, nil
}

// WaitObservation implements core.PendingSink: block until the ticket's
// append is durable (its covering fsync returned), the committer hit a
// sticky error, or the store closed. Durability wins over a sticky
// error: a write the disk has already accepted is acknowledged even if
// a later fsync failed.
func (sh *shard) WaitObservation(ticket uint64) error {
	if !sh.opts.GroupCommit {
		return nil
	}
	sh.gcMu.Lock()
	for {
		if sh.gcSynced > ticket {
			break
		}
		if sh.gcErr != nil {
			err := sh.gcErr
			sh.gcMu.Unlock()
			return fmt.Errorf("histstore: group commit: %w", err)
		}
		if sh.gcClosed {
			sh.gcMu.Unlock()
			return errors.New("histstore: store closed before group commit")
		}
		sh.gcCond.Wait()
	}
	sh.gcMu.Unlock()
	// Locally durable; now wait for the mirror (which never fails an
	// acknowledged-durable write — it degrades instead).
	if sh.opts.Mirror != nil {
		return sh.opts.Mirror.WaitFrame(sh.name, ticket)
	}
	return nil
}

// commitLoop is the shard's committer goroutine: woken by the first
// append after a flush, it issues the one fsync covering everything
// written so far. With no CommitInterval the sync starts immediately —
// batches form naturally from the appends that pile up while the
// previous fsync is in flight; with one, the committer first waits up
// to the interval for companions (cut short when the batch fills or
// the store closes).
func (sh *shard) commitLoop() {
	defer close(sh.gcDone)
	var timer *time.Timer
	for {
		select {
		case <-sh.gcStop:
			// Final flush so every in-flight waiter resolves durable.
			sh.syncBatch()
			return
		case <-sh.gcKick:
		}
		if d := sh.opts.CommitInterval; d > 0 {
			if timer == nil {
				timer = time.NewTimer(d)
			} else {
				timer.Reset(d)
			}
			select {
			case <-timer.C:
			case <-sh.gcFull:
				if !timer.Stop() {
					<-timer.C
				}
			case <-sh.gcStop:
				if !timer.Stop() {
					<-timer.C
				}
				sh.syncBatch()
				return
			}
		}
		sh.syncBatch()
	}
}

// syncBatch fsyncs the WAL once and advances the durable watermark over
// every append written before the sync, waking their waiters. Called
// only from commitLoop.
func (sh *shard) syncBatch() {
	sh.mu.Lock()
	if sh.broken != nil {
		err := sh.broken
		sh.mu.Unlock()
		sh.gcMu.Lock()
		if sh.gcErr == nil {
			sh.gcErr = err
		}
		sh.gcCond.Broadcast()
		sh.gcMu.Unlock()
		return
	}
	target := sh.nextSeq
	sh.gcMu.Lock()
	pending := target > sh.gcSynced
	sh.gcMu.Unlock()
	if !pending {
		sh.mu.Unlock()
		return
	}
	err := sh.wal.Sync()
	if err != nil {
		// An fsync the kernel rejected may have dropped dirty pages;
		// nothing appended afterwards could be trusted either.
		sh.broken = fmt.Errorf("group-commit fsync: %w", err)
	}
	sh.mu.Unlock()
	sh.gcMu.Lock()
	defer sh.gcMu.Unlock()
	if err != nil {
		if sh.gcErr == nil {
			sh.gcErr = err
		}
	} else if target > sh.gcSynced {
		batch := target - sh.gcSynced
		sh.gcSynced = target
		if sh.obs != nil {
			sh.obs.commitBatch.Observe(float64(batch))
			sh.obs.fsyncsAvoided.Add(float64(batch - 1))
		}
	}
	sh.gcCond.Broadcast()
}

func (sh *shard) checkpoint(snap *core.Snapshot) (err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.obs != nil {
		began := time.Now()
		defer func() {
			if err != nil {
				sh.obs.checkpointFailures.Inc()
				return
			}
			sh.obs.checkpoints.Inc()
			sh.obs.checkpointSeconds.Observe(time.Since(began).Seconds())
		}()
	}
	if sh.broken != nil {
		return fmt.Errorf("histstore: shard unusable: %w", sh.broken)
	}
	count := uint64(snap.Len())
	if count < sh.snapCount {
		// A snapshot older than the durable one cannot move the shard
		// forward; keep what is on disk.
		return nil
	}
	if count == sh.snapCount && sh.nextSeq == sh.snapCount {
		return nil // nothing new since the last checkpoint
	}
	err = framelog.WriteFileAtomic(filepath.Join(sh.dir, snapshotName), func(w io.Writer) error {
		return core.SaveSnapshot(snap, w)
	})
	if err != nil {
		return fmt.Errorf("histstore: checkpoint: %w", err)
	}
	// From here on the new snapshot is the durable truth; compact the
	// WAL down to the suffix it does not cover. Appends are blocked on
	// sh.mu, so the file cannot grow under the rewrite.
	if err := sh.rewriteWAL(count); err != nil {
		return err
	}
	sh.snapCount = count
	if sh.gcCond != nil {
		// The checkpoint fsynced the snapshot and the compacted WAL, so
		// every append written so far is durable; release any waiters
		// without charging the committer another fsync.
		sh.gcMu.Lock()
		if sh.nextSeq > sh.gcSynced {
			sh.gcSynced = sh.nextSeq
		}
		sh.gcCond.Broadcast()
		sh.gcMu.Unlock()
	}
	return nil
}

// rewriteWAL replaces the WAL with only the frames whose sequence is
// not covered by the snapshot.
func (sh *shard) rewriteWAL(covered uint64) error {
	walPath := filepath.Join(sh.dir, walName)
	src, err := os.Open(walPath)
	if err != nil {
		return fmt.Errorf("histstore: compacting wal: %w", err)
	}
	defer src.Close()
	err = framelog.WriteFileAtomic(walPath, func(dst io.Writer) error {
		var buf []byte
		_, err := framelog.Scan(src, maxFramePayload, framelog.TruncateTornTail, func(_ int64, p []byte) error {
			seq, err := frameSeq(p)
			if err != nil || seq < covered {
				return err
			}
			buf = framelog.Append(buf[:0], p)
			_, err = dst.Write(buf)
			return err
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("histstore: compacting wal: %w", err)
	}
	// The old handle still points at the replaced (now unlinked) inode;
	// reopen. If the reopen fails the shard is unusable: writes through
	// the stale handle would be acknowledged yet land in a deleted
	// file, so mark it broken and fail loudly instead.
	wal, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		sh.broken = fmt.Errorf("reopening compacted wal: %w", err)
		return fmt.Errorf("histstore: %w", sh.broken)
	}
	sh.wal.Close()
	sh.wal = wal
	return nil
}
