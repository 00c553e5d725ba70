// Package cluster implements the placement and replication machinery
// behind midasd's multi-node mode: a consistent-hash ring with virtual
// nodes that maps federation names to owning replicas, an
// epoch-versioned routing table layered on top (copy-on-write, safe to
// publish through an atomic pointer), a WAL-frame replicator that ships
// appends to a standby, and the ownership policy: the table's algebra
// (Pin, Adopt, Fence) and the control loop's pure decision (Loop).
//
// The ring is deterministic: every node that knows the same member set
// computes the same placement, so the cluster needs no coordinator —
// routing disagreements are bounded to handoff windows and resolved by
// the table epoch (higher epoch wins).
package cluster

import (
	"fmt"
	"sort"
)

// Member is one midasd replica: a stable identity plus the base URL
// peers and clients reach it at.
type Member struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// DefaultVirtualNodes is the per-member vnode count NewRing uses when
// asked for zero. 128 points per member keeps the expected placement
// imbalance under ~10% for small clusters while a full ring rebuild
// stays microseconds.
const DefaultVirtualNodes = 128

// vnode is one point on the hash circle.
type vnode struct {
	hash   uint64
	member int32 // index into Ring.members
}

// Ring is an immutable consistent-hash ring over a member set. Build
// once with NewRing; lookups are lock-free and allocation-free.
type Ring struct {
	members []Member // sorted by ID
	weights []uint64 // per-member rendezvous seed, parallel to members
	vnodes  []vnode  // sorted by (hash, member ID)
}

// fnv1a64 hashes s with 64-bit FNV-1a. Inlining the loop (rather than
// using hash/fnv) avoids the []byte conversion and keeps Owner at zero
// allocations.
func fnv1a64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap avalanche that decorrelates
// the vnode points of one member and the rendezvous scores of one key.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewRing builds a ring over members with vnodesPer virtual nodes each
// (DefaultVirtualNodes when <= 0). Member IDs must be unique and
// non-empty. The input slice is copied; order does not matter.
func NewRing(members []Member, vnodesPer int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	if vnodesPer <= 0 {
		vnodesPer = DefaultVirtualNodes
	}
	ms := append([]Member(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	for i, m := range ms {
		if m.ID == "" {
			return nil, fmt.Errorf("cluster: member with empty ID")
		}
		if i > 0 && ms[i-1].ID == m.ID {
			return nil, fmt.Errorf("cluster: duplicate member ID %q", m.ID)
		}
	}
	r := &Ring{
		members: ms,
		weights: make([]uint64, len(ms)),
		vnodes:  make([]vnode, 0, len(ms)*vnodesPer),
	}
	for i, m := range ms {
		seed := fnv1a64(m.ID)
		r.weights[i] = seed
		for v := 0; v < vnodesPer; v++ {
			r.vnodes = append(r.vnodes, vnode{
				hash:   mix64(seed + uint64(v)*0x9e3779b97f4a7c15),
				member: int32(i),
			})
		}
	}
	// Sort by hash; ties (astronomically rare, but placement must be
	// identical on every node) break by member ID so the slice order is
	// fully determined by the member set.
	sort.Slice(r.vnodes, func(i, j int) bool {
		a, b := r.vnodes[i], r.vnodes[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return r.members[a.member].ID < r.members[b.member].ID
	})
	return r, nil
}

// Members returns the sorted member set (shared slice; do not mutate).
func (r *Ring) Members() []Member { return r.members }

// Size returns the number of members.
func (r *Ring) Size() int { return len(r.members) }

// succ returns the index of the first vnode clockwise of key's hash
// (wrapping), i.e. the start of the search for the key's owner.
func (r *Ring) succ(key string) int {
	h := fnv1a64(key)
	// Inline binary search (sort.Search's func value would allocate on
	// capture-free paths anyway; this keeps the lookup branch-predictable).
	lo, hi := 0, len(r.vnodes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.vnodes[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.vnodes) {
		lo = 0
	}
	// Rendezvous tiebreak: if several vnodes collide on the exact same
	// hash point, the owner is the member with the highest mixed
	// (weight, key-hash) score rather than whichever sorted first — the
	// score depends only on (member ID, key), so every node agrees and
	// no single member captures all collision points.
	if end := lo + 1; end < len(r.vnodes) && r.vnodes[end].hash == r.vnodes[lo].hash {
		best, bestScore := lo, mix64(r.weights[r.vnodes[lo].member]^h)
		for i := end; i < len(r.vnodes) && r.vnodes[i].hash == r.vnodes[lo].hash; i++ {
			if s := mix64(r.weights[r.vnodes[i].member] ^ h); s > bestScore {
				best, bestScore = i, s
			}
		}
		lo = best
	}
	return lo
}

// Owner returns the member owning key. Zero allocations.
func (r *Ring) Owner(key string) Member {
	return r.members[r.vnodes[r.succ(key)].member]
}

// NextDistinct walks clockwise from key's position and returns the
// first member whose ID differs from excludeID — the natural standby
// for a key owned by excludeID. ok is false when every member is
// excluded (single-member ring).
func (r *Ring) NextDistinct(key, excludeID string) (Member, bool) {
	start := r.succ(key)
	n := len(r.vnodes)
	for i := 0; i < n; i++ {
		m := r.members[r.vnodes[(start+i)%n].member]
		if m.ID != excludeID {
			return m, true
		}
	}
	return Member{}, false
}
