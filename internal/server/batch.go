package server

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/histstore"
	"repro/internal/ires"
	"repro/internal/metrics"
	"repro/internal/tpch"
)

// tenant is one hosted federation: a scheduler, the queries it serves,
// the per-query sweep batcher, its serving stats and (when durable)
// its history store.
type tenant struct {
	name  string
	sched QueryScheduler
	// queries are the served queries in the spec's order, the order every
	// activation opens and bootstraps them in.
	queries []tpch.QueryID
	stats   *tenantStats
	// store is the tenant's durable history root; nil when running in
	// memory. The scheduler owns the flow of data through it — the
	// tenant only closes it at drain.
	store *histstore.Store
	// latency holds the pre-bound per-query request-latency histograms
	// (see Server.registerMetrics); immutable once serving starts.
	latency map[tpch.QueryID]*metrics.Histogram
	// pages holds each served query's history-page cost cache, in
	// queries' order.
	pages []costSlot

	// inflight counts the tenant's submissions from registration (before
	// the drain flag and the ownership state are loaded) to completion,
	// less the ones an ownership move holds (Server.hold). It is the
	// admission bound (compared with QueueDepth), what Drain waits on
	// after setting draining, and what an outbound handoff waits on after
	// flipping state to sending.
	inflight atomic.Int64

	// Cluster-mode ownership state (see cluster.go). The zero state is
	// cluster.Active, so standalone servers never touch any of this. Only
	// newTenant and the transitions below write state.
	state atomic.Int32
	// bootstrap is the spec's per-query bootstrap target, which every
	// activation tops each history up to.
	bootstrap int
	// attachChaos attaches the spec's fault schedule to the tenant's
	// cloud; the first successful activation runs it and clears it.
	attachChaos func()
	// stateMu serializes the transitions and guards held, the channel the
	// requests an ownership move holds wait on; closed when it resolves.
	stateMu sync.Mutex
	held    chan struct{}
	// activateMu single-flights inbound activation (Server.activate): a
	// retried activate — the source re-sends after a lost ack, activation
	// being idempotent — blocks here until the first attempt resolves
	// instead of racing a second OpenHistory pass over the same shards.
	activateMu sync.Mutex
	// fenced, which activateMu guards, is the highest epoch a handoff's
	// activate has ended at here, or the table's epoch at boot, when the
	// outcome of one minted before is unknown: one at or below it is
	// refused (Server.handleHandoffActivate).
	fenced uint64
	// unsettled is an outbound handoff whose activate outcome is unknown:
	// the control loop settles it every pass until the target answers.
	unsettled atomic.Pointer[activation]

	mu      sync.Mutex
	pending map[tpch.QueryID]*sweepBatch
}

// beginReceiving flips the tenant remote→receiving for an activation;
// beginSending flips it active→sending for an outbound move. Either
// opens the channel the requests that arrive meanwhile wait on, and is
// false when the tenant is not in the state it leaves (another move is
// under way). Whoever begins a move owns the state until it calls
// finish.
func (t *tenant) beginReceiving() bool { return t.begin(cluster.Remote, cluster.Receiving) }

func (t *tenant) beginSending() bool { return t.begin(cluster.Active, cluster.Sending) }

func (t *tenant) begin(from, to int32) bool {
	t.stateMu.Lock()
	defer t.stateMu.Unlock()
	if !t.state.CompareAndSwap(from, to) {
		return false
	}
	t.held = make(chan struct{})
	return true
}

// finish resolves a move — a boot's activation, an inbound handoff's, a
// takeover's, an outbound handoff, a demotion — to final and releases
// every held request: cluster.Active serves them here, cluster.Remote
// redirects them to the owner the table names by then.
func (t *tenant) finish(final int32) {
	t.stateMu.Lock()
	defer t.stateMu.Unlock()
	t.state.Store(final)
	if t.held != nil {
		close(t.held)
		t.held = nil
	}
}

// newTenant builds a tenant that serves name's queries, or — cold — one
// that stays remote until an activation opens it.
func newTenant(name string, sched QueryScheduler, queries []tpch.QueryID, cold bool) *tenant {
	t := &tenant{
		name:    name,
		sched:   sched,
		queries: queries,
		stats:   &tenantStats{},
		pages:   make([]costSlot, len(queries)),
		pending: make(map[tpch.QueryID]*sweepBatch),
	}
	if cold {
		t.state.Store(cluster.Remote)
	}
	return t
}

// registerMetrics publishes the tenant's serving counters on reg,
// labeled with the federation name.
func (t *tenant) registerMetrics(reg *metrics.Registry) {
	t.stats.register(reg, t.name)
}

// checkpoint fsyncs the tenant's histories; a scheduler without a store
// has nothing to sync.
func (t *tenant) checkpoint() error {
	if err := t.sched.Checkpoint(); err != nil {
		t.stats.checkpointErr.Add(1)
		return err
	}
	t.stats.checkpoints.Add(1)
	return nil
}

// closeStore releases the tenant's WAL handles at drain.
func (t *tenant) closeStore() error {
	if t.store == nil {
		return nil
	}
	return t.store.Close()
}

// releaseState drops the scheduler's in-memory histories and closes the
// tenant's WAL handles; the next activation rebuilds from disk.
func (t *tenant) releaseState() error {
	if hd, ok := t.sched.(historyDropper); ok {
		hd.DropHistories()
	}
	return t.closeStore()
}

// sweepBatch is one in-flight plan sweep that any number of concurrent
// submissions of the same query share. The leader runs the sweep and
// publishes (sweep, err, abandoned) before closing done; followers only
// wait. Batches are pooled: the last release hands one back.
type sweepBatch struct {
	// done is made, under the tenant's mu, by the first follower to
	// join, so a batch nobody waits on never has one; the leader reads
	// it under the same lock as it retires the batch from pending.
	done  chan struct{}
	sweep *ires.Sweep
	err   error
	// abandoned marks a sweep that failed because its leader's own
	// context ended: the error is the leader's, not the query's, so
	// followers do not inherit it.
	abandoned bool
	// users counts the requests holding the batch: the leader from
	// creation, a follower from finding it pending (under the tenant's
	// mu, so none joins after the leader deletes it). Each lets go once,
	// through release; the last one releases the sweep.
	users atomic.Int32
}

var batchPool = sync.Pool{New: func() any { return new(sweepBatch) }}

// sweepReleaser is the optional scheduler capability behind sweep reuse
// (ires.Scheduler has it): a released sweep's cost matrix backs a later
// sweep. Schedulers without it — stubs, bench/'s tracing decorator,
// which keeps its last sweep for a probe — never have a sweep released.
type sweepReleaser interface {
	ReleaseSweep(sw *ires.Sweep)
}

// sharedSweep returns the batch holding a plan sweep for q, coalescing
// with an in-flight sweep when one exists. The second return reports
// whether the caller used another request's sweep (false = this call led
// one). On success the caller holds the batch and hands it back with
// release once done with the sweep; on error it holds nothing.
//
// The leader runs the sweep itself, under its own request context, so
// ctx bounds both a follower's wait and a leader's sweep. A leader whose
// context ends mid-sweep fails only itself: its batch is abandoned, and
// the first follower to wake with a live context leads the next one.
// Any other sweep error is the query's and is shared with the batch.
func (t *tenant) sharedSweep(ctx context.Context, q tpch.QueryID) (*sweepBatch, bool, error) {
	for {
		t.mu.Lock()
		b, ok := t.pending[q]
		if !ok {
			b = batchPool.Get().(*sweepBatch)
			b.users.Store(1)
			t.pending[q] = b
			t.mu.Unlock()

			t.stats.sweeps.Add(1)
			b.sweep, b.err = t.sched.PlanSweep(ctx, q)
			b.abandoned = b.err != nil && ctx.Err() != nil
			t.mu.Lock()
			delete(t.pending, q)
			done := b.done
			t.mu.Unlock()
			if done != nil {
				close(done)
			}
			return t.hold(b, false)
		}
		if b.done == nil {
			b.done = make(chan struct{})
		}
		done := b.done
		b.users.Add(1)
		t.mu.Unlock()
		select {
		case <-done:
			if !b.abandoned {
				return t.hold(b, true)
			}
			t.release(b)
			if err := ctx.Err(); err != nil {
				return nil, true, err
			}
		case <-ctx.Done():
			t.release(b)
			return nil, true, ctx.Err()
		}
	}
}

// hold returns a finished batch to a caller that keeps it, or lets go of
// a failed one (reading its error first: the release may recycle it).
func (t *tenant) hold(b *sweepBatch, coalesced bool) (*sweepBatch, bool, error) {
	if err := b.err; err != nil {
		t.release(b)
		return nil, coalesced, err
	}
	return b, coalesced, nil
}

// release lets go of one hold on b. The last one out releases the sweep
// when the scheduler can take it back, and returns b to the pool: no
// one can find it any more, as it left pending before its leader let go.
func (t *tenant) release(b *sweepBatch) {
	if b.users.Add(-1) != 0 {
		return
	}
	if r, ok := t.sched.(sweepReleaser); ok && b.sweep != nil {
		r.ReleaseSweep(b.sweep)
	}
	*b = sweepBatch{}
	batchPool.Put(b)
}
