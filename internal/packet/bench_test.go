package packet

import "testing"

// packetRing is the in-flight population recycle cycles through: 64 live
// packets, allocated before anything is measured.
func packetRing() (*Store, *[64]Ref) {
	st := NewStore()
	var ring [64]Ref
	for i := range ring {
		ring[i] = st.Alloc(uint64(i), 0, 1, 8, Request, 0)
	}
	return st, &ring
}

// recycle frees one slot of the ring, recycles it through Alloc, and touches
// the header, route and timestamp arrays the way the simulator's hot path
// does.
func recycle(st *Store, ring *[64]Ref, i int) {
	j := i & 63
	st.Free(ring[j])
	ref := st.Alloc(uint64(i), 0, 1, 8, Request, int64(i))
	hdr := st.Hdr(ref)
	hdr.SrcRouter = 0
	hdr.DstRouter = 1
	st.Times(ref).Inject = int64(i)
	st.Route(ref).Hops++
	ring[j] = ref
}

// BenchmarkPacketStore measures the steady-state packet lifecycle on the SoA
// store.
func BenchmarkPacketStore(b *testing.B) {
	st, ring := packetRing()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recycle(st, ring, i)
	}
}

// TestPacketStoreAllocs pins the packet lifecycle at zero allocations: at
// steady state every Alloc is an index recycle — the whole point of the arena
// layout. Growth costs one allocation per page and nothing else, and a Reset
// store refills its pages for free.
func TestPacketStoreAllocs(t *testing.T) {
	st, ring := packetRing()
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() { recycle(st, ring, i); i++ }); allocs != 0 {
		t.Errorf("%v allocations per packet, want 0", allocs)
	}

	const pages = 5
	fill := func(st *Store) {
		for j := 0; j < pages*pageSize; j++ {
			st.Alloc(uint64(j), 0, 1, 8, Request, 0)
		}
	}
	// AllocsPerRun runs fill once untimed first; Reset keeps every page.
	st = NewStore()
	if allocs := testing.AllocsPerRun(10, func() { st.Reset(); fill(st) }); allocs != 0 {
		t.Errorf("refilling a Reset store past %d pages: %v allocations, want 0", pages, allocs)
	}
	// AllocsPerRun calls its function runs+1 times; each call grows a fresh
	// store made beforehand.
	fresh := make([]*Store, 11)
	for j := range fresh {
		fresh[j] = NewStore()
	}
	if allocs := testing.AllocsPerRun(len(fresh)-1, func() { fill(fresh[0]); fresh = fresh[1:] }); allocs != pages {
		t.Errorf("growing a fresh store to %d pages: %v allocations, want one per page", pages, allocs)
	}
}
