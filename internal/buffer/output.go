package buffer

import (
	"fmt"

	"flexvc/internal/packet"
)

// outEntry is a packet staged in an output buffer together with the
// downstream VC it has already been assigned and the routing kind recorded at
// reservation time (needed to release the matching credit class later). The
// packet size is copied in so occupancy accounting never resolves the ref.
type outEntry struct {
	ready  int64
	ref    packet.Ref
	size   int32
	destVC int32
	kind   packet.RouteKind
}

// OutputBuffer models the small per-output-port staging buffer of a combined
// input-output buffered router. Packets are moved into it by the crossbar
// (possibly faster than link rate when the router has internal speedup) and
// drained onto the link at one phit per cycle.
type OutputBuffer struct {
	capacity  int // phits
	committed int
	queue     ring[outEntry]
	peak      int
}

// NewOutputBuffer builds an output buffer with the given capacity in phits.
func NewOutputBuffer(capacity int) *OutputBuffer {
	o := new(OutputBuffer)
	o.Reset(capacity)
	return o
}

// Reset makes o the empty buffer NewOutputBuffer(capacity) builds, keeping
// the storage its staging ring grew to.
func (o *OutputBuffer) Reset(capacity int) {
	if capacity <= 0 {
		panic(fmt.Sprintf("buffer: output buffer capacity must be positive, got %d", capacity))
	}
	*o = OutputBuffer{capacity: capacity, queue: o.queue.emptied()}
}

// Capacity returns the buffer capacity in phits.
func (o *OutputBuffer) Capacity() int { return o.capacity }

// Free returns the free space in phits.
func (o *OutputBuffer) Free() int { return o.capacity - o.committed }

// CanAccept reports whether a packet of the given size fits.
func (o *OutputBuffer) CanAccept(size int) bool { return o.Free() >= size }

// Push stages a packet of `size` phits heading to destVC of the downstream
// port. ready is the cycle at which the packet may start leaving on the link.
func (o *OutputBuffer) Push(ref packet.Ref, size, destVC int, kind packet.RouteKind, ready int64) {
	if !o.CanAccept(size) {
		panic(fmt.Sprintf("buffer: output buffer overflow pushing %d phits into %d free", size, o.Free()))
	}
	o.committed += size
	if o.committed > o.peak {
		o.peak = o.committed
	}
	o.queue.push(outEntry{ref: ref, size: int32(size), destVC: int32(destVC), kind: kind, ready: ready})
}

// Head returns the head packet, its size, its assigned downstream VC and
// routing kind, if it is ready at the given cycle. It returns NilRef when the
// buffer is empty or the head is not ready yet.
func (o *OutputBuffer) Head(now int64) (ref packet.Ref, size, destVC int, kind packet.RouteKind) {
	if o.queue.len() == 0 {
		return packet.NilRef, 0, -1, packet.Minimal
	}
	e := o.queue.front()
	if e.ready > now {
		return packet.NilRef, 0, -1, packet.Minimal
	}
	return e.ref, int(e.size), int(e.destVC), e.kind
}

// Pop removes the head packet and frees its space.
func (o *OutputBuffer) Pop() packet.Ref {
	if o.queue.len() == 0 {
		panic("buffer: pop from empty output buffer")
	}
	e := o.queue.pop()
	o.committed -= int(e.size)
	return e.ref
}

// Len returns the number of staged packets.
func (o *OutputBuffer) Len() int { return o.queue.len() }

// Committed returns the occupied space in phits.
func (o *OutputBuffer) Committed() int { return o.committed }

// Peak returns the highest occupancy observed in phits.
func (o *OutputBuffer) Peak() int { return o.peak }

// HeadReady returns the cycle the head packet may start leaving on the link;
// ok is false for an empty buffer.
func (o *OutputBuffer) HeadReady() (ready int64, ok bool) {
	if o.queue.len() == 0 {
		return 0, false
	}
	return o.queue.front().ready, true
}
