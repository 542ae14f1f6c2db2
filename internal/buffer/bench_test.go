package buffer

import (
	"testing"

	"flexvc/internal/packet"
)

// staticPort returns a statically partitioned 4-VC port and the packet
// cycleStatic moves through it.
func staticPort() (*InputBuffer, packet.Ref) {
	st := packet.NewStore()
	return NewInputBuffer(StaticConfig(4, 64)), st.Alloc(1, 0, 1, 8, packet.Request, 0)
}

// cycleStatic runs one packet through the credit-flow hot path of VC vc:
// reserve, enqueue, head, dequeue and credit release.
func cycleStatic(tb testing.TB, buf *InputBuffer, ref packet.Ref, vc int) {
	if !buf.Reserve(vc, 8, packet.Minimal) {
		tb.Fatal("reserve failed")
	}
	buf.Enqueue(vc, ref, 0, packet.Minimal)
	if buf.Head(vc, 0) == packet.NilRef {
		tb.Fatal("head not ready")
	}
	buf.Dequeue(vc)
	buf.ReleaseCredit(vc, 8, packet.Minimal)
}

// BenchmarkInputBufferCycle measures the steady-state cost of the credit-flow
// hot path on a statically partitioned port.
func BenchmarkInputBufferCycle(b *testing.B) {
	buf, ref := staticPort()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycleStatic(b, buf, ref, i&3)
	}
}

// TestInputBufferCycleAllocs pins BenchmarkInputBufferCycle's path at zero
// allocations per packet.
func TestInputBufferCycleAllocs(t *testing.T) {
	buf, ref := staticPort()
	vc := 0
	if allocs := testing.AllocsPerRun(1000, func() { cycleStatic(t, buf, ref, vc&3); vc++ }); allocs != 0 {
		t.Errorf("%v allocations per packet, want 0", allocs)
	}
}

// BenchmarkInputBufferDAMQCycle is the same loop over a DAMQ port, which
// additionally exercises the shared-pool accounting.
func BenchmarkInputBufferDAMQCycle(b *testing.B) {
	buf := NewInputBuffer(DAMQConfig(4, 256, 0.75))
	st := packet.NewStore()
	ref := st.Alloc(1, 0, 1, 8, packet.Request, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vc := i & 3
		if !buf.Reserve(vc, 8, packet.Nonminimal) {
			b.Fatal("reserve failed")
		}
		buf.Enqueue(vc, ref, 0, packet.Nonminimal)
		buf.Dequeue(vc)
		buf.ReleaseCredit(vc, 8, packet.Nonminimal)
	}
}

// BenchmarkInputBufferDeepQueue interleaves enqueues and dequeues with several
// resident packets per VC, the regime where FIFO reslicing used to reallocate.
func BenchmarkInputBufferDeepQueue(b *testing.B) {
	buf := NewInputBuffer(StaticConfig(2, 256))
	st := packet.NewStore()
	ref := st.Alloc(1, 0, 1, 8, packet.Request, 0)
	for i := 0; i < 8; i++ {
		buf.Reserve(i&1, 8, packet.Minimal)
		buf.Enqueue(i&1, ref, 0, packet.Minimal)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vc := i & 1
		buf.Reserve(vc, 8, packet.Minimal)
		buf.Enqueue(vc, ref, 0, packet.Minimal)
		buf.Dequeue(vc)
		buf.ReleaseCredit(vc, 8, packet.Minimal)
	}
}

// BenchmarkOutputBufferCycle measures the staging-buffer push/head/pop path.
func BenchmarkOutputBufferCycle(b *testing.B) {
	out := NewOutputBuffer(64)
	st := packet.NewStore()
	ref := st.Alloc(1, 0, 1, 8, packet.Request, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Push(ref, 8, 0, packet.Minimal, 0)
		if p, _, _, _ := out.Head(0); p == packet.NilRef {
			b.Fatal("head not ready")
		}
		out.Pop()
	}
}
