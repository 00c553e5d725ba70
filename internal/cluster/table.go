package cluster

import (
	"maps"
	"math"
	"slices"
)

// Table is one immutable version of the cluster routing state: the
// ring, an epoch counter, and a set of overrides recording tenants that
// have been handed off away from their ring position. Tables are
// copy-on-write, so a server can publish the current table through an
// atomic pointer and route lookups stay lock-free and allocation-free.
//
// Epochs order tables: the higher epoch wins. Epoch 1 is the boot table.
// Three methods are the whole algebra of ownership — Pin a move, Adopt a
// peer's table, Fence past an epoch — and each returns a successor at a
// higher epoch, or nil when the table in force stands. None mints an
// epoch past math.MaxUint64: a table there takes no further change.
type Table struct {
	ring      *Ring
	epoch     uint64
	overrides map[string]int32 // federation -> index into ring.members
}

// NewTable wraps ring in a boot table at epoch 1 with no overrides.
func NewTable(ring *Ring) *Table {
	return &Table{ring: ring, epoch: 1}
}

// Epoch returns the table's version.
func (t *Table) Epoch() uint64 { return t.epoch }

// Ring returns the underlying ring.
func (t *Table) Ring() *Ring { return t.ring }

// Owner returns the member that owns federation fed, honoring
// overrides. Zero allocations.
func (t *Table) Owner(fed string) Member {
	if t.overrides != nil {
		if idx, ok := t.overrides[fed]; ok {
			return t.ring.members[idx]
		}
	}
	return t.ring.Owner(fed)
}

// Standby returns the replication target for fed: the first ring member
// clockwise of fed's position that is not the current owner. ok is
// false on a single-member ring.
func (t *Table) Standby(fed string) (Member, bool) {
	return t.ring.NextDistinct(fed, t.Owner(fed).ID)
}

// Member resolves a member ID.
func (t *Table) Member(id string) (Member, bool) {
	if idx, ok := t.memberIndex(id); ok {
		return t.ring.members[idx], true
	}
	return Member{}, false
}

// memberIndex returns the position of id in the sorted member set.
func (t *Table) memberIndex(id string) (int32, bool) {
	i := slices.IndexFunc(t.ring.members, func(m Member) bool { return m.ID == id })
	return int32(i), i >= 0
}

// Overrides returns a copy of the override map (federation -> member
// ID), for serialization.
func (t *Table) Overrides() map[string]string {
	if len(t.overrides) == 0 {
		return nil
	}
	out := make(map[string]string, len(t.overrides))
	for fed, idx := range t.overrides {
		out[fed] = t.ring.members[idx].ID
	}
	return out
}

// Pin returns a copy of t in which fed is owned by member id, at
// max(epoch+1, minEpoch): one ownership change bumps the epoch once. An
// override matching the ring placement is recorded anyway, so a later
// ring change cannot silently move the federation back. Nil — t stands —
// when t already places fed on id at minEpoch or later (the move's
// exchange beat the local pin), when id is not a member, or when t's
// epoch has no successor.
func (t *Table) Pin(fed, id string, minEpoch uint64) *Table {
	idx, ok := t.memberIndex(id)
	if !ok || t.epoch == math.MaxUint64 || t.epoch >= minEpoch && t.Owner(fed).ID == id {
		return nil
	}
	overrides := make(map[string]int32, len(t.overrides)+1)
	maps.Copy(overrides, t.overrides)
	overrides[fed] = idx
	return &Table{ring: t.ring, epoch: max(t.epoch+1, minEpoch), overrides: overrides}
}

// Adopt returns the table to install on learning of a peer's (epoch,
// overrides), unknown member IDs dropped, or nil when t stands. A newer
// epoch wins whole. Epochs are minted as local epoch+1 with no global
// allocator, so two moves can mint distinct tables at one epoch: at t's
// own epoch a different override set merges — union, the smaller member
// ID on a conflict, so every node merging the same tables in any order
// computes one table — at an epoch past both, so the merge wins
// everywhere.
func (t *Table) Adopt(epoch uint64, overrides map[string]string) *Table {
	in := make(map[string]int32, len(overrides))
	for fed, id := range overrides {
		if idx, ok := t.memberIndex(id); ok {
			in[fed] = idx
		}
	}
	if epoch > t.epoch {
		return &Table{ring: t.ring, epoch: epoch, overrides: in}
	}
	if epoch < t.epoch || epoch == math.MaxUint64 || maps.Equal(in, t.overrides) {
		return nil
	}
	for fed, idx := range t.overrides {
		if cur, ok := in[fed]; !ok || idx < cur { // members are sorted by ID
			in[fed] = idx
		}
	}
	return &Table{ring: t.ring, epoch: epoch + 1, overrides: in}
}

// Fence returns a copy of t at epoch, or nil when t's epoch reaches it
// already: a node that learns of an epoch never again mints one at or
// below it.
func (t *Table) Fence(epoch uint64) *Table {
	if t.epoch >= epoch {
		return nil
	}
	return &Table{ring: t.ring, epoch: epoch, overrides: t.overrides}
}
