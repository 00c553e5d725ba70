package midas

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// BenchmarkRouteLookup measures the cluster routing decision every
// request pays before any scheduling work: federation name → owning
// member through the epoch-versioned table (consistent-hash ring plus
// override map). It sits on the serving hot path, so it must stay
// allocation-free (checked below before the timed loop).
func BenchmarkRouteLookup(b *testing.B) {
	members := make([]cluster.Member, 5)
	for i := range members {
		members[i] = cluster.Member{
			ID:   fmt.Sprintf("node-%d", i),
			Addr: fmt.Sprintf("http://10.0.0.%d:8642", i+1),
		}
	}
	ring, err := cluster.NewRing(members, 0)
	if err != nil {
		b.Fatal(err)
	}
	tab := cluster.NewTable(ring)
	// An override exercises the map probe a moved federation pays.
	if tab = tab.Pin("tenant-3", members[0].ID, 0); tab == nil {
		b.Fatal("override rejected")
	}
	feds := [...]string{"tenant-0", "tenant-1", "tenant-2", "tenant-3", "paper", "analytics"}

	if allocs := testing.AllocsPerRun(100, func() {
		for _, f := range feds {
			_ = tab.Owner(f)
		}
	}); allocs != 0 {
		b.Fatalf("route lookup allocates %.1f times per %d lookups, want 0", allocs, len(feds))
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = tab.Owner(feds[i%len(feds)]).ID
	}
}

// sink defeats dead-code elimination of the benchmarked lookup.
var sink string
