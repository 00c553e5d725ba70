package core

import (
	"sync"
	"sync/atomic"
)

// The model cache exploits a structural property of Algorithm 1: the
// window search — which windows are tried, which models are fitted,
// where it converges — depends only on the history contents, never on
// the plan being estimated. A scheduler estimating tens of thousands of
// equivalent QEPs against one history (paper Example 3.1) therefore
// needs exactly one window search per history version; every further
// plan costs only one prediction per metric.

// DefaultCacheSize is the default bound on cached window fits. One
// entry is retained per (history, version) pair, so the bound is the
// number of distinct query templates × history versions estimated
// between evictions — generous for a scheduler that appends one
// observation per round.
const DefaultCacheSize = 64

// fitKey identifies one immutable history state.
type fitKey struct {
	owner   *History
	version uint64
}

// fitEntry is a single-flight cache slot: concurrent estimators racing
// on a fresh key all wait on one window search instead of fitting the
// same models in parallel. It holds the fit itself, so a window search
// that fills it allocates nothing more for the served shape.
type fitEntry struct {
	key  fitKey
	once sync.Once
	fit  windowFit
	err  error
}

// fitCache is a bounded FIFO map of window fits. FIFO (not LRU) is
// deliberate: keys are monotonically growing history versions, so the
// oldest entry is also the least likely to be requested again.
//
// A sweep asks for one key thousands of times in a row, so the entry
// the previous call resolved also sits in an atomic slot that a repeat
// of its key reads without taking mu.
type fitCache struct {
	last atomic.Pointer[fitEntry]
	hits atomic.Uint64

	mu sync.Mutex
	// order is a ring of the cached keys, as long as the bound once
	// full: the oldest at next.
	order  []fitKey
	next   int
	m      map[fitKey]*fitEntry
	misses uint64
}

func newFitCache(max int) *fitCache {
	if max < 1 {
		max = 1
	}
	return &fitCache{order: make([]fitKey, 0, max), m: make(map[fitKey]*fitEntry, max)}
}

// entry returns k's single-flight slot, inserting an empty one the
// first time the key is seen. plans ≥ 1 is how many plans the caller
// scores through the slot, and the counters move by that many lookups —
// one miss and plans−1 hits on a fresh key, plans hits otherwise — so a
// chunk reads on the hit ratio exactly as its plans looked up one by
// one would. The caller computes through the slot's once, so concurrent
// callers racing on a fresh key share one window search, and a failed
// search fails identically — without refitting — for every plan of that
// version.
func (c *fitCache) entry(k fitKey, plans int) *fitEntry {
	if l := c.last.Load(); l != nil && l.key == k {
		c.hits.Add(uint64(plans))
		return l
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if ok {
		c.hits.Add(uint64(plans))
	} else {
		c.misses++
		c.hits.Add(uint64(plans - 1))
		e = &fitEntry{key: k}
		c.m[k] = e
		if len(c.order) < cap(c.order) {
			c.order = append(c.order, k)
		} else {
			delete(c.m, c.order[c.next])
			c.order[c.next] = k
			c.next = (c.next + 1) % len(c.order)
		}
	}
	c.last.Store(e)
	return e
}

func (c *fitCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits.Load(), c.misses
}
