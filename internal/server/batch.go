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
	name    string
	sched   QueryScheduler
	queries map[tpch.QueryID]bool
	stats   *tenantStats
	// store is the tenant's durable history root; nil when running in
	// memory. The scheduler owns the flow of data through it — the
	// tenant only closes it at drain.
	store *histstore.Store
	// admit is this tenant's admission semaphore (one per federation so
	// tenants cannot head-of-line-block each other); sized and set by
	// newServer before any request is served.
	admit chan struct{}
	// latency holds the pre-bound per-query request-latency histograms
	// (see Server.registerMetrics); immutable once serving starts.
	latency map[tpch.QueryID]*metrics.Histogram

	// Cluster-mode ownership state (see cluster.go). The zero state is
	// tenantActive, so standalone servers never touch any of this.
	state atomic.Int32
	// inflight counts submissions between the cluster routing gate and
	// completion; an outbound handoff flips state to sending, then
	// waits for this to reach zero before streaming the histories.
	inflight atomic.Int64
	// ownerHint names the handoff target while state is sending — the
	// routing table only learns the new owner once the move commits.
	ownerHint atomic.Pointer[cluster.Member]
	// bootstrap is the spec's per-query bootstrap target, replayed when
	// a cold tenant activates (handoff in, takeover).
	bootstrap int
	// actMu guards activated, the channel requests held during an
	// inbound handoff wait on; closed when the handoff resolves.
	actMu     sync.Mutex
	activated chan struct{}
	// activateMu single-flights inbound activation (handoff activate,
	// takeover) and serializes it against abort: a retried activate —
	// the source re-sends after a lost ack, activation being idempotent
	// — blocks here until the first attempt resolves instead of racing
	// a second OpenHistory pass over the same shards.
	activateMu sync.Mutex

	mu      sync.Mutex
	pending map[tpch.QueryID]*sweepBatch
}

// beginReceiving flips the tenant remote→receiving and opens the
// activation channel requests will wait on. False when the tenant is
// not remote (already active here, or another handoff is in flight).
func (t *tenant) beginReceiving() bool {
	t.actMu.Lock()
	defer t.actMu.Unlock()
	if !t.state.CompareAndSwap(tenantRemote, tenantReceiving) {
		return false
	}
	t.activated = make(chan struct{})
	return true
}

// finishReceiving resolves an inbound handoff to final (tenantActive on
// success, tenantRemote on abort) and releases every held request.
func (t *tenant) finishReceiving(final int32) {
	t.actMu.Lock()
	defer t.actMu.Unlock()
	t.state.Store(final)
	if t.activated != nil {
		close(t.activated)
		t.activated = nil
	}
}

// waitActive blocks a request while an inbound handoff resolves.
// Returns true when the wait ended (re-check the state), false when
// ctx expired first.
func (t *tenant) waitActive(ctx context.Context) bool {
	t.actMu.Lock()
	ch := t.activated
	t.actMu.Unlock()
	if ch == nil {
		return true // already resolved between the state load and here
	}
	select {
	case <-ch:
		return true
	case <-ctx.Done():
		return false
	}
}

func newTenant(name string, sched QueryScheduler, queries []tpch.QueryID) *tenant {
	qs := make(map[tpch.QueryID]bool, len(queries))
	for _, q := range queries {
		qs[q] = true
	}
	return &tenant{
		name:    name,
		sched:   sched,
		queries: qs,
		stats:   newTenantStats(),
		pending: make(map[tpch.QueryID]*sweepBatch),
	}
}

// registerMetrics publishes the tenant's serving counters on reg,
// labeled with the federation name.
func (t *tenant) registerMetrics(reg *metrics.Registry) {
	t.stats.register(reg, t.name)
}

// checkpoint fsyncs the tenant's histories when its scheduler supports
// it; schedulers without the Checkpointer capability (or without a
// store) have nothing to sync.
func (t *tenant) checkpoint() error {
	cp, ok := t.sched.(Checkpointer)
	if !ok {
		return nil
	}
	if err := cp.Checkpoint(); err != nil {
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

// sweepBatch is one in-flight plan sweep that any number of concurrent
// submissions of the same query share. The leader runs the sweep and
// publishes (sweep, err) before closing done; followers only wait.
type sweepBatch struct {
	done  chan struct{}
	sweep *ires.Sweep
	err   error
	// joined counts the followers waiting on this batch (observability
	// and test synchronization).
	joined atomic.Int64
}

// sharedSweep returns a plan sweep for q, coalescing with an in-flight
// sweep when one exists. The second return reports whether the caller
// joined another request's sweep (false = this call was the leader).
//
// waitCtx bounds only this caller's wait. The sweep itself runs under a
// context obtained from newSweepCtx *inside the detached goroutine and
// cancelled only when the sweep returns* — so neither a follower giving
// up, nor the leading request timing out or its client disconnecting,
// can cancel work other requests are waiting on.
func (t *tenant) sharedSweep(waitCtx context.Context, newSweepCtx func() (context.Context, context.CancelFunc), q tpch.QueryID) (*ires.Sweep, bool, error) {
	t.mu.Lock()
	if b, ok := t.pending[q]; ok {
		t.mu.Unlock()
		b.joined.Add(1)
		select {
		case <-b.done:
			return b.sweep, true, b.err
		case <-waitCtx.Done():
			return nil, true, waitCtx.Err()
		}
	}
	b := &sweepBatch{done: make(chan struct{})}
	t.pending[q] = b
	t.mu.Unlock()

	t.stats.sweeps.Add(1)
	// A leader that cannot be cancelled (Done() == nil, e.g. an
	// embedder driving ServeSubmit with context.Background) would wait
	// out the whole sweep regardless, so the detached goroutine buys
	// nothing — run the sweep inline and skip the spawn. Followers
	// still coalesce through t.pending either way.
	if waitCtx.Done() == nil {
		sweepCtx, cancel := newSweepCtx()
		b.sweep, b.err = t.sched.PlanSweep(sweepCtx, q)
		cancel()
		t.mu.Lock()
		delete(t.pending, q)
		t.mu.Unlock()
		close(b.done)
		return b.sweep, false, b.err
	}

	// The sweep runs detached: if the leading request times out or its
	// client disconnects, the batch still completes for the requests
	// that joined it.
	go func() {
		sweepCtx, cancel := newSweepCtx()
		defer cancel()
		b.sweep, b.err = t.sched.PlanSweep(sweepCtx, q)
		t.mu.Lock()
		delete(t.pending, q)
		t.mu.Unlock()
		close(b.done)
	}()
	select {
	case <-b.done:
		return b.sweep, false, b.err
	case <-waitCtx.Done():
		return nil, false, waitCtx.Err()
	}
}
