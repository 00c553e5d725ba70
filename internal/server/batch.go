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
	// latency holds the pre-bound per-query request-latency histograms
	// (see Server.registerMetrics); immutable once serving starts.
	latency map[tpch.QueryID]*metrics.Histogram

	// inflight counts the tenant's submissions from registration (before
	// the drain flag and the ownership state are loaded) to completion.
	// It is the admission bound (compared with QueueDepth), what Drain
	// waits on after setting draining, and what an outbound handoff
	// waits on after flipping state to sending.
	inflight atomic.Int64

	// Cluster-mode ownership state (see cluster.go). The zero state is
	// tenantActive, so standalone servers never touch any of this.
	state atomic.Int32
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
		stats:   &tenantStats{},
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
// publishes (sweep, err, abandoned) before closing done; followers only
// wait.
type sweepBatch struct {
	done  chan struct{}
	sweep *ires.Sweep
	err   error
	// abandoned marks a sweep that failed because its leader's own
	// context ended: the error is the leader's, not the query's, so
	// followers do not inherit it.
	abandoned bool
	// joined counts the followers waiting on this batch (observability
	// and test synchronization).
	joined atomic.Int64
}

// sharedSweep returns a plan sweep for q, coalescing with an in-flight
// sweep when one exists. The second return reports whether the caller
// used another request's sweep (false = this call led one).
//
// The leader runs the sweep itself, under its own request context, so
// ctx bounds both a follower's wait and a leader's sweep. A leader whose
// context ends mid-sweep fails only itself: its batch is abandoned, and
// the first follower to wake with a live context leads the next one.
// Any other sweep error is the query's and is shared with the batch.
func (t *tenant) sharedSweep(ctx context.Context, q tpch.QueryID) (*ires.Sweep, bool, error) {
	for {
		t.mu.Lock()
		b, ok := t.pending[q]
		if !ok {
			b = &sweepBatch{done: make(chan struct{})}
			t.pending[q] = b
			t.mu.Unlock()

			t.stats.sweeps.Add(1)
			b.sweep, b.err = t.sched.PlanSweep(ctx, q)
			b.abandoned = b.err != nil && ctx.Err() != nil
			t.mu.Lock()
			delete(t.pending, q)
			t.mu.Unlock()
			close(b.done)
			return b.sweep, false, b.err
		}
		t.mu.Unlock()
		b.joined.Add(1)
		select {
		case <-b.done:
			if !b.abandoned {
				return b.sweep, true, b.err
			}
			if err := ctx.Err(); err != nil {
				return nil, true, err
			}
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
}
