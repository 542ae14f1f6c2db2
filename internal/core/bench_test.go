package core

import (
	"testing"

	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

// allowedVCsHop returns a FlexVC 4/2+2/1 manager and a request's local hop
// after a global one, with a global-local continuation planned.
func allowedVCsHop() (*Manager, HopContext) {
	mgr := NewManager(Scheme{Policy: FlexVC, VCs: TwoClass(4, 2, 2, 1), Selection: JSQ})
	return mgr, HopContext{
		Class:        packet.Request,
		Kind:         topology.Local,
		InputKind:    topology.Global,
		InputVC:      0,
		PlannedAfter: topology.SeqOf(topology.Global, topology.Local),
		EscapeAfter:  topology.SeqOf(topology.Global, topology.Local),
	}
}

// BenchmarkAllowedVCs measures the per-hop cost of the FlexVC decision, the
// function on the router critical path.
func BenchmarkAllowedVCs(b *testing.B) {
	mgr, ctx := allowedVCsHop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mgr.AllowedVCs(ctx).Empty() {
			b.Fatal("unexpected empty range")
		}
	}
}

// TestAllowedVCsAllocs pins the FlexVC decision at zero allocations per hop.
func TestAllowedVCsAllocs(t *testing.T) {
	mgr, ctx := allowedVCsHop()
	if allocs := testing.AllocsPerRun(1000, func() { mgr.AllowedVCs(ctx) }); allocs != 0 {
		t.Errorf("%v allocations per hop, want 0", allocs)
	}
}
