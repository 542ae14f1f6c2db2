package packet

import "fmt"

// Ref is a dense index into a Store — the simulator's 4-byte handle to a
// packet. Queues, rings, event buffers and allocator plans hold Refs instead
// of pointers: entries shrink, the packet graph holds no GC-visible pointers,
// and resolving a Ref is one bounds-checked array index into flat storage.
type Ref uint32

// NilRef is the "no packet" sentinel.
const NilRef Ref = ^Ref(0)

// Store is the structure-of-arrays packet arena of one simulated network. A
// packet is a slot shared by four parallel flat arrays, split by access
// pattern:
//
//   - hdr: the immutable header (endpoints, size, class, ID) — hot reads in
//     the router stepping phase;
//   - route: the mutable routing state — the hottest array, updated at every
//     hop;
//   - times: lifecycle timestamps — written thrice, read at delivery;
//   - replyTo: the request a reply retains (reactive traffic only).
//
// Freed slots recycle through an index free-list (LIFO), so a run at steady
// state allocates nothing per packet and the arrays grow to the peak
// in-flight population once (amortised doubling), instead of one heap object
// per packet. A Store is NOT safe for concurrent use — each network instance
// (one replication, one goroutine) owns exactly one.
//
// Refs are only valid between Alloc and Free of their slot. The store can
// reissue a Ref immediately after Free; long-lived caches must therefore key
// on (Ref, ID) — see router's plan cache. Pointers returned by Hdr, Route
// and Times are invalidated by the next Alloc (the arrays may grow); they
// must not be retained across allocation points.
type Store struct {
	hdr     []Header
	route   []RouteState
	times   []Times
	replyTo []Ref

	free []Ref

	// news and reuses count fresh slots and recycled ones, for tests and
	// capacity diagnostics.
	news, reuses int64

	// live, when non-nil (poison mode), tracks slot liveness so every
	// accessor can detect a use-after-free instead of silently reading
	// recycled state. Enabled only by tests — the nil check is the hot
	// path's whole cost when disabled.
	live []bool
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Alloc takes a slot (recycling a freed index when available), initialises
// the header and timestamps, and resets the routing state. The endpoint
// routers are left at InvalidRouter; traffic generation fills them via Hdr
// right after.
func (s *Store) Alloc(id uint64, src, dst NodeID, size int, class Class, genTime int64) Ref {
	var ref Ref
	if n := len(s.free); n > 0 {
		ref = s.free[n-1]
		s.free = s.free[:n-1]
		s.reuses++
	} else {
		ref = Ref(len(s.hdr))
		s.hdr = append(s.hdr, Header{})
		s.route = append(s.route, RouteState{})
		s.times = append(s.times, Times{})
		s.replyTo = append(s.replyTo, NilRef)
		if s.live != nil {
			s.live = append(s.live, false)
		}
		s.news++
	}
	s.hdr[ref] = Header{
		ID: id, Src: src, Dst: dst,
		SrcRouter: InvalidRouter, DstRouter: InvalidRouter,
		Size: int32(size), Class: class,
	}
	s.times[ref] = Times{Gen: genTime}
	s.route[ref].Reset()
	s.replyTo[ref] = NilRef
	if s.live != nil {
		s.live[ref] = true
	}
	return ref
}

// Free recycles a slot. The caller must guarantee no live Ref remains (the
// packet has been delivered and any retaining reply has been delivered too).
// In poison mode the slot's state is scrambled so a stale read through a
// leaked pointer is loud too.
func (s *Store) Free(ref Ref) {
	if ref == NilRef {
		return
	}
	if s.live != nil {
		s.check(ref)
		s.live[ref] = false
		// Poison the slot: impossible values that fail fast if consumed.
		s.hdr[ref] = Header{ID: ^uint64(0), Src: InvalidNode, Dst: InvalidNode,
			SrcRouter: InvalidRouter, DstRouter: InvalidRouter, Size: -1}
		s.route[ref] = RouteState{Intermediate: InvalidRouter, InputVC: -2, Hops: -1}
		s.times[ref] = Times{Gen: -1, Inject: -1, Recv: -1}
	}
	s.replyTo[ref] = NilRef
	s.free = append(s.free, ref)
}

// Hdr returns the header of a live packet. The pointer is invalidated by the
// next Alloc.
func (s *Store) Hdr(ref Ref) *Header {
	if s.live != nil {
		s.check(ref)
	}
	return &s.hdr[ref]
}

// Route returns the mutable routing state of a live packet. The pointer is
// invalidated by the next Alloc.
func (s *Store) Route(ref Ref) *RouteState {
	if s.live != nil {
		s.check(ref)
	}
	return &s.route[ref]
}

// Times returns the lifecycle timestamps of a live packet. The pointer is
// invalidated by the next Alloc.
func (s *Store) Times(ref Ref) *Times {
	if s.live != nil {
		s.check(ref)
	}
	return &s.times[ref]
}

// ReplyTo returns the request this reply retains, or NilRef.
func (s *Store) ReplyTo(ref Ref) Ref {
	if s.live != nil {
		s.check(ref)
	}
	return s.replyTo[ref]
}

// SetReplyTo links a reply to the request it retains.
func (s *Store) SetReplyTo(ref, req Ref) {
	if s.live != nil {
		s.check(ref)
	}
	s.replyTo[ref] = req
}

// Latency returns the end-to-end packet latency in cycles, valid once the
// packet has been delivered.
func (s *Store) Latency(ref Ref) int64 {
	t := s.Times(ref)
	return t.Recv - t.Gen
}

// NetworkLatency returns the latency excluding source queueing, valid once
// the packet has been delivered.
func (s *Store) NetworkLatency(ref Ref) int64 {
	t := s.Times(ref)
	return t.Recv - t.Inject
}

// Slots returns the number of slots the store has ever grown to (live +
// free), i.e. the peak in-flight population so far.
func (s *Store) Slots() int { return len(s.hdr) }

// InUse returns the number of live (allocated, unfreed) slots.
func (s *Store) InUse() int { return len(s.hdr) - len(s.free) }

// Stats reports (fresh slots, recycled allocations) since the store was
// created or last Reset.
func (s *Store) Stats() (news, reuses int64) { return s.news, s.reuses }

// Reset forgets every packet but keeps the arrays' capacity, so a recycled
// store (see sim's per-replication scratch pool) starts its next replication
// with zero per-packet allocations. Counters restart too.
func (s *Store) Reset() {
	s.hdr = s.hdr[:0]
	s.route = s.route[:0]
	s.times = s.times[:0]
	s.replyTo = s.replyTo[:0]
	s.free = s.free[:0]
	s.news, s.reuses = 0, 0
	if s.live != nil {
		s.live = s.live[:0]
	}
}

// EnablePoison turns on use-after-free detection: every accessor panics on a
// freed or out-of-range Ref, and Free scrambles the slot. Meant for tests;
// it must be called before the first Alloc.
func (s *Store) EnablePoison() {
	if len(s.hdr) != 0 {
		panic("packet: EnablePoison after Alloc")
	}
	s.live = make([]bool, 0, 64)
}

// check panics on a dangling Ref (poison mode only).
func (s *Store) check(ref Ref) {
	if int(ref) >= len(s.live) || !s.live[ref] {
		panic(fmt.Sprintf("packet: use of dead ref %d (slots=%d)", ref, len(s.hdr)))
	}
}

// Describe formats a packet for debugging.
func (s *Store) Describe(ref Ref) string {
	if ref == NilRef {
		return "pkt{nil}"
	}
	h, r := &s.hdr[ref], &s.route[ref]
	return fmt.Sprintf("pkt{ref=%d id=%d %s %s %d->%d size=%d hops=%d}",
		ref, h.ID, h.Class, r.Kind, h.Src, h.Dst, h.Size, r.Hops)
}
