// Package histstore is the durable execution-history store: the state
// DREAM's estimation quality is made of, kept alive across restarts,
// crashes and drains.
//
// A Store owns one root directory and shards it by history name (the
// serving layer uses one Store per federation and one shard per query).
// Each shard is
//
//	<root>/<name>/wal*.log        CRC-framed append-only log of
//	                              observations, one frame each, numbered
//	                              from 0 — the history itself, in
//	                              segments (segments.go): wal.log alone
//	                              unless Options.Retain rolls and trims
//	<root>/<name>/snapshot.json   shape header, written once:
//	                              {version, dim, metrics} and an empty
//	                              "observations" list
//
// Appends flow in through core.HistorySink: OpenHistory returns a
// *core.History wired so every Append lands in the WAL before it
// becomes visible in memory (write-ahead). Sync is the durability
// point: one fsync per open shard.
//
// Recovery is deterministic and torn-tail-tolerant: check the header's
// shape, replay the segments present in sequence order, truncate the
// newest at the first corrupt frame. A recovered history holds
// byte-identical observations in identical order to the history that
// wrote it, from the same base on, so DREAM's window fit — and every
// estimate derived from it — is identical too.
//
// A shard an older, compacting build wrote keeps observations in
// snapshot.json itself. It is refused at open, before anything in its
// directory is touched: a build that still folds that layout into the
// WAL must open it once first.
package histstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/framelog"
	"repro/internal/metrics"
)

const snapshotName = "snapshot.json"

// Options tunes a Store.
type Options struct {
	// Fsync makes every append durable against a machine crash: it is
	// acknowledged — Append on the shard's History returns — only after
	// an fsync that began after its frame was written. The fsync is
	// issued outside every lock by whichever appender is waiting for one
	// (WaitObservation), so concurrent appends share it and readers of
	// the History never wait for the disk. Without it (the default) an
	// append survives any process crash — the write has left the process
	// before Append returns — but sits in the OS page cache until the
	// kernel flushes it or Sync runs.
	Fsync bool
	// GroupCommit is a synonym of Fsync, kept only because the frozen
	// bench/ sets it; ROADMAP 1(a) drops it with the next benchmark PR.
	GroupCommit bool
	// Retain, when positive, bounds every shard — the history in memory,
	// its WAL on disk and a standby's replica of it alike — to the newest
	// Retain..2·Retain observations by the one rule core.RetainedBase.
	// Sequence numbers and History.Len keep counting from the first
	// observation ever appended. Zero keeps everything, in one wal.log.
	// It must cover the largest window any model fits on the history.
	Retain int
	// Mirror, when non-nil, observes every WAL append for replication:
	// AppendFrame is invoked under the shard lock immediately after the
	// frame reaches the local WAL (so mirror order is exactly WAL
	// order) with the raw on-disk frame bytes — the mirror must copy
	// them before returning and must not block. WaitFrame is invoked
	// outside the shard and History locks before the append is
	// acknowledged; a mirror that replicates synchronously blocks there
	// until the frame is on the standby (or it has decided to degrade).
	Mirror Mirror
	// Metrics, when non-nil, registers the store's health instruments
	// (WAL append latency, Sync duration and failures, recovery
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
	// the shard and History locks, after local durability.
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

	// How a roll creates a segment and unlinks one: the file system, or
	// a fault injector in tests.
	createSegment func(path string) (walFile, error)
	removeSegment func(path string) error

	// Replica shards: WAL files this store appends raw mirrored frames
	// to without ever opening them as histories (the standby half of
	// cluster replication). Keyed by shard name.
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
	retainedObs        *metrics.Gauge
	tornTails          *metrics.Counter
	commitBatch        *metrics.Histogram
	fsyncsAvoided      *metrics.Counter
}

// newStoreObs registers the store's instruments; see Options.Metrics.
func newStoreObs(reg *metrics.Registry, store string) *storeObs {
	// Appends are ~1 µs, fsyncs and recoveries span ms to seconds;
	// two bucket ladders keep both ends readable.
	appendBuckets := metrics.ExponentialBuckets(1e-6, 4, 12) // 1 µs .. ~4 s
	fileOpBuckets := metrics.ExponentialBuckets(1e-4, 4, 10) // 100 µs .. ~26 s
	return &storeObs{
		walAppendSeconds: reg.HistogramVec("midas_histstore_wal_append_seconds",
			"Latency of one write-ahead WAL append (including fsync when enabled).",
			appendBuckets, "store").With(store),
		checkpointSeconds: reg.HistogramVec("midas_histstore_checkpoint_seconds",
			"Duration of one shard checkpoint: the WAL fsync Store.Sync issues (near zero when every append was already synced).",
			fileOpBuckets, "store").With(store),
		checkpoints: reg.CounterVec("midas_histstore_checkpoints_total",
			"Completed shard checkpoints (Store.Sync WAL fsyncs, no-op ones included).",
			"store").With(store),
		checkpointFailures: reg.CounterVec("midas_histstore_checkpoint_failures_total",
			"Shard checkpoints whose WAL fsync failed; the shard refuses appends afterwards.",
			"store").With(store),
		recoverySeconds: reg.HistogramVec("midas_histstore_recovery_seconds",
			"Duration of one shard open: header check and WAL replay.",
			fileOpBuckets, "store").With(store),
		recoveredObs: reg.CounterVec("midas_histstore_recovered_observations_total",
			"Observations read back from durable state across shard opens.",
			"store").With(store),
		retainedObs: reg.GaugeVec("midas_histstore_retained_observations",
			"Observations the open shards hold on disk; with retention on, at most twice the bound per shard plus what an older layout has yet to shed.",
			"store").With(store),
		tornTails: reg.CounterVec("midas_histstore_torn_tails_total",
			"WAL tails truncated at a torn or corrupt frame during recovery.",
			"store").With(store),
		commitBatch: reg.HistogramVec("midas_histstore_commit_batch_size",
			"Appends acknowledged by one WAL fsync (Options.Fsync); a mean near 1 means one writer at a time, not a fault.",
			metrics.ExponentialBuckets(1, 2, 11), // 1 .. 1024
			"store").With(store),
		fsyncsAvoided: reg.CounterVec("midas_histstore_fsyncs_avoided_total",
			"Fsyncs saved by concurrent appends sharing one: acknowledged appends minus fsyncs issued.",
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
	if opts.Retain < 0 {
		return nil, fmt.Errorf("histstore: negative Retain %d", opts.Retain)
	}
	s := &Store{root: root, opts: opts, shards: make(map[string]*shard), replicas: make(map[string]*replica),
		createSegment: createSegment, removeSegment: os.Remove}
	if opts.Metrics != nil {
		label := opts.MetricsStore
		if label == "" {
			label = filepath.Base(root)
		}
		s.obs = newStoreObs(opts.Metrics, label)
	}
	return s, nil
}

// shardDir maps a shard name to its directory; names are path-escaped
// so any query or tenant name is a single safe path element.
func (s *Store) shardDir(name string) string {
	return filepath.Join(s.root, url.PathEscape(name))
}

// OpenHistory opens (recovering, if durable state exists) or creates
// the named shard and returns its live history: appends to the returned
// History are written ahead to the shard's WAL, and the observations
// recovered from it are already in it. Repeated calls with
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
	s.replMu.Lock()
	s.closeReplica(name)
	s.replMu.Unlock()
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
	// The header is checked first: a shard this build must refuse is
	// left exactly as it was found.
	hasHeader, err := readHeader(filepath.Join(dir, snapshotName), dim, metricNames)
	if err != nil {
		return nil, fmt.Errorf("histstore: shard %q: %w", name, err)
	}
	starts, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("histstore: shard %q: %w", name, err)
	}
	if len(starts) == 0 {
		starts = []uint64{0}
	}
	// The history resumes where the oldest segment present starts, and
	// stays bounded while the replay runs.
	h, err := core.NewHistoryAt(int(starts[0]), dim, metricNames...)
	if err != nil {
		return nil, fmt.Errorf("histstore: shard %q: %w", name, err)
	}
	h.SetRetain(s.opts.Retain)
	// Every frame is decoded into one scratch array; Append copies it.
	var scratch []float64
	apply := func(_ int64, p []byte) error {
		seq, o, err := decodePayload(p, &scratch)
		if err != nil {
			return err
		}
		if seq < uint64(h.Len()) {
			// Already applied: a duplicate frame (replica batches may
			// overlap, and a retried write may append a run again).
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
	}
	var wal *os.File
	var torn bool
	for i, start := range starts {
		path := filepath.Join(dir, segmentName(start))
		if uint64(h.Len()) < start {
			err = fmt.Errorf("wal sequence gap: segment %s, history has %d observations", segmentName(start), h.Len())
		} else if i < len(starts)-1 {
			// A closed segment was complete when the log rolled past it:
			// a bad frame in one is damage, not a torn write.
			err = scanFile(path, apply)
		} else {
			// A torn tail (a crash mid-write) is dropped, so the next
			// append starts on a clean frame boundary.
			wal, _, torn, err = framelog.OpenAppend(path, maxFramePayload, apply)
		}
		if err != nil {
			return nil, fmt.Errorf("histstore: shard %q: replaying wal: %w", name, err)
		}
	}
	if torn && s.obs != nil {
		s.obs.tornTails.Inc()
	}
	if !hasHeader {
		if err := writeHeader(dir, dim, metricNames); err != nil {
			wal.Close()
			return nil, fmt.Errorf("histstore: shard %q: %w", name, err)
		}
	}
	sh := &shard{
		name:    name,
		opts:    s.opts,
		obs:     s.obs,
		hist:    h,
		wal:     s.segLog(dir, wal, starts),
		nextSeq: uint64(h.Len()),
		// Everything replayed so far is durable (it was read back off
		// disk), so the watermark starts with nothing pending.
		gcSynced: uint64(h.Len()),
	}
	sh.gcCond = sync.NewCond(&sh.gcMu)
	h.SetSink(sh)
	if s.obs != nil {
		s.obs.recoverySeconds.Observe(time.Since(began).Seconds())
		s.obs.recoveredObs.Add(float64(h.Len() - int(starts[0])))
		s.obs.retainedObs.Add(float64(sh.wal.held(sh.nextSeq)))
	}
	return sh, nil
}

// scanFile replays one closed segment: every frame must be intact.
func scanFile(path string, fn func(off int64, payload []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = framelog.Scan(f, maxFramePayload, framelog.Strict, fn)
	return err
}

// header is a shard's snapshot.json. Version is 1, the only version any
// build has written, and Observations is empty as written: only a
// compacting build ever left any in it.
type header struct {
	Version      int               `json:"version"`
	Dim          int               `json:"dim"`
	Metrics      []string          `json:"metrics"`
	Observations []json.RawMessage `json:"observations"`
}

// readHeader checks the shard's snapshot.json, if present, against the
// requested shape.
func readHeader(path string, dim int, metrics []string) (found bool, err error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	var hdr header
	if err := json.Unmarshal(raw, &hdr); err != nil {
		return false, fmt.Errorf("%s: %w", snapshotName, err)
	}
	switch {
	case hdr.Version != 1:
		return false, fmt.Errorf("%s has version %d, want 1", snapshotName, hdr.Version)
	case len(hdr.Observations) > 0:
		return false, fmt.Errorf("%s holds %d observations: a compacting build wrote this shard, "+
			"and an earlier build must open it once to fold them into the WAL", snapshotName, len(hdr.Observations))
	case hdr.Dim != dim:
		return false, fmt.Errorf("%s has dim %d, want %d", snapshotName, hdr.Dim, dim)
	case !slices.Equal(hdr.Metrics, metrics):
		return false, fmt.Errorf("%s has metrics %q, want %q", snapshotName, hdr.Metrics, metrics)
	}
	return true, nil
}

// writeHeader writes the shard's shape header, byte for byte what every
// build since the WAL became the history has written.
func writeHeader(dir string, dim int, metrics []string) error {
	return framelog.WriteFileAtomic(filepath.Join(dir, snapshotName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(header{Version: 1, Dim: dim, Metrics: metrics, Observations: []json.RawMessage{}})
	})
}

// Sync is the store's durability point: it fsyncs the WAL of every open
// shard that has appends no fsync covers yet, so everything appended
// before the call survives a machine crash. Every shard is attempted
// even when one fails — a sick shard must not keep healthy ones from
// syncing — and the first error is returned.
func (s *Store) Sync() error {
	s.mu.Lock()
	shards := make([]*shard, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.Unlock()
	var first error
	for _, sh := range shards {
		began := time.Now()
		err := sh.syncAll()
		if err != nil && first == nil {
			first = fmt.Errorf("histstore: shard %q: %w", sh.name, err)
		}
		if s.obs == nil {
			continue
		}
		if err != nil {
			s.obs.checkpointFailures.Inc()
			continue
		}
		s.obs.checkpoints.Inc()
		s.obs.checkpointSeconds.Observe(time.Since(began).Seconds())
	}
	return first
}

// Close closes every open shard's WAL handle. A durable shard (Options.
// Fsync) gets one final covering fsync first, so no append in flight is
// abandoned; a waiter that arrives after it is told the store closed.
// Appends to histories opened through the store fail afterwards (and,
// per the write-ahead contract, leave the in-memory history unchanged).
// Sync first: without Options.Fsync, Close does not fsync.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for name, sh := range s.shards {
		if sh.wal.durable {
			_ = sh.syncAll() // a failure reaches the waiters as gcErr
		}
		// No fsync starts after gcClosed, and the one in flight is the
		// last user of the handle.
		sh.gcMu.Lock()
		sh.gcClosed = true
		for sh.gcLeading {
			sh.gcCond.Wait()
		}
		sh.gcCond.Broadcast()
		sh.gcMu.Unlock()
		sh.mu.Lock()
		if err := sh.wal.f.Close(); err != nil && first == nil {
			first = err
		}
		if s.obs != nil {
			s.obs.retainedObs.Add(-float64(sh.wal.held(sh.nextSeq)))
		}
		sh.mu.Unlock()
		delete(s.shards, name)
	}
	s.replMu.Lock()
	for name, r := range s.replicas {
		if err := r.wal.f.Close(); err != nil && first == nil {
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
	opts Options
	obs  *storeObs // nil when the store is unmetered
	hist *core.History

	mu      sync.Mutex
	wal     segLog
	buf     []byte // frame scratch, reused across appends
	nextSeq uint64 // sequence of the next record to append
	// broken, once set, fails every subsequent append, Sync and export:
	// a WAL write or fsync failed, so the log may end in a torn frame
	// that recovery will cut at, or hold pages the kernel dropped —
	// acknowledging anything written after it would silently break the
	// write-ahead contract.
	broken error
	// rollMu is held for the length of an fsync issued outside mu, and by
	// a roll — the one thing that closes the handle being synced. Taken
	// with mu held (the syncer then drops mu); gcMu is innermost.
	rollMu sync.Mutex

	// The durable watermark and who is advancing it: the waiter that
	// finds nobody leading issues the fsync itself (waitSynced). Waiters
	// take gcMu alone.
	gcMu      sync.Mutex
	gcCond    *sync.Cond // broadcast on every change below
	gcSynced  uint64     // sequences below this are covered by an fsync
	gcErr     error      // sticky first fsync failure
	gcClosed  bool       // Close ran; no further fsync will ever come
	gcLeading bool       // a waiter is inside lead
}

var _ core.HistorySink = (*shard)(nil)

// RecordObservation implements core.HistorySink: frame the observation
// and append it to the WAL (write-ahead — the caller only makes the
// observation visible in memory after this returns nil). It is called
// with the owning History's lock held, which makes WAL order identical
// to in-memory order by construction, and so never fsyncs, a roll apart:
// whatever the append still has to wait for — the covering fsync, the
// mirror — the caller waits for in WaitObservation, after releasing
// that lock. o is a view into the history: the frame copies its values
// and nothing keeps o.
func (sh *shard) RecordObservation(o core.Observation) (uint64, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.broken != nil {
		return 0, fmt.Errorf("histstore: shard unusable: %w", sh.broken)
	}
	var began time.Time
	if sh.obs != nil {
		began = time.Now()
	}
	held := sh.wal.held(sh.nextSeq)
	if sh.wal.rollDue(sh.nextSeq) {
		sh.rollMu.Lock()
		err := sh.wal.roll(sh.nextSeq)
		sh.rollMu.Unlock()
		if err != nil {
			sh.broken = err
			return 0, fmt.Errorf("histstore: %w", sh.broken)
		}
		if sh.wal.durable {
			// The roll's fsync covered every frame written so far.
			sh.gcMu.Lock()
			sh.gcSynced = sh.nextSeq
			sh.gcCond.Broadcast()
			sh.gcMu.Unlock()
		}
	}
	sh.buf = appendFrame(sh.buf[:0], sh.nextSeq, o)
	if _, err := sh.wal.f.Write(sh.buf); err != nil {
		// A short write leaves a torn frame mid-log: recovery would cut
		// there and drop everything appended after it.
		sh.broken = fmt.Errorf("wal append: %w", err)
		return 0, fmt.Errorf("histstore: %w", sh.broken)
	}
	seq := sh.nextSeq
	sh.nextSeq++
	if sh.opts.Mirror != nil {
		sh.opts.Mirror.AppendFrame(sh.name, seq, sh.buf)
	}
	if sh.obs != nil {
		sh.obs.walAppendSeconds.Observe(time.Since(began).Seconds())
		sh.obs.retainedObs.Add(float64(sh.wal.held(sh.nextSeq)) - float64(held))
	}
	return seq, nil
}

// WaitObservation implements core.HistorySink. On a durable log it
// returns once an fsync that began after the ticket's write covers it.
func (sh *shard) WaitObservation(ticket uint64) error {
	if sh.wal.durable {
		if err := sh.waitSynced(ticket + 1); err != nil {
			return fmt.Errorf("histstore: %w", err)
		}
	}
	// Locally durable; now wait for the mirror (which never fails an
	// acknowledged-durable write — it degrades instead).
	if sh.opts.Mirror != nil {
		return sh.opts.Mirror.WaitFrame(sh.name, ticket)
	}
	return nil
}

// syncAll covers everything appended so far: Store.Sync's and Close's
// way into the one fsync path.
func (sh *shard) syncAll() error {
	sh.mu.Lock()
	upto, err := sh.nextSeq, sh.broken
	sh.mu.Unlock()
	if err != nil {
		return fmt.Errorf("shard unusable: %w", err)
	}
	return sh.waitSynced(upto)
}

// waitSynced returns once every sequence below upto is covered by an
// fsync. The one rule: a waiter that is not covered leads — issues the
// next fsync itself — unless somebody already is, and then waits for
// that one; what a sync does not cover (it landed after the sync began)
// is led by one of its own waiters next. Durability wins over a sticky
// error: a write the disk has accepted is acknowledged even if a later
// fsync failed.
func (sh *shard) waitSynced(upto uint64) error {
	sh.gcMu.Lock()
	defer sh.gcMu.Unlock()
	for sh.gcSynced < upto {
		switch {
		case sh.gcErr != nil:
			return fmt.Errorf("shard unusable: %w", sh.gcErr)
		case sh.gcClosed:
			return errors.New("store closed before the covering fsync")
		case sh.gcLeading:
			sh.gcCond.Wait()
		default:
			sh.lead()
		}
	}
	return nil
}

// lead fsyncs the WAL once, outside every lock — appends keep landing,
// and no reader of the History waits — and advances the durable
// watermark over every append written before the sync began. Called
// with gcMu held and nobody leading; gcMu is dropped for the sync and
// held again on return. gcLeading clears under the same hold of gcMu
// that wakes the followers: one of those the sync did not cover finds
// nobody leading and goes next, none sleeps through its turn.
func (sh *shard) lead() {
	sh.gcLeading = true
	sh.gcMu.Unlock()
	sh.mu.Lock()
	target, f, err := sh.nextSeq, sh.wal.f, sh.broken
	if err == nil {
		err = sh.wal.syncClosed()
	}
	sh.rollMu.Lock()
	sh.mu.Unlock()
	if err == nil {
		err = f.Sync()
	}
	sh.rollMu.Unlock()
	if err != nil {
		// An fsync the kernel rejected may have dropped dirty pages;
		// nothing appended afterwards could be trusted either.
		sh.mu.Lock()
		if sh.broken == nil {
			sh.broken = fmt.Errorf("wal fsync: %w", err)
		}
		err = sh.broken
		sh.mu.Unlock()
	}
	sh.gcMu.Lock()
	sh.gcLeading = false
	if err != nil {
		if sh.gcErr == nil {
			sh.gcErr = err
		}
	} else if target > sh.gcSynced { // re-checked: a roll may have passed us
		batch := target - sh.gcSynced
		sh.gcSynced = target
		if sh.obs != nil && sh.wal.durable {
			sh.obs.commitBatch.Observe(float64(batch))
			sh.obs.fsyncsAvoided.Add(float64(batch - 1))
		}
	}
	sh.gcCond.Broadcast()
}
