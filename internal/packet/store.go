package packet

import "fmt"

// Ref is a dense index into a Store — the simulator's 4-byte handle to a
// packet. Queues, rings, event buffers and allocator plans hold Refs instead
// of pointers: entries shrink, the packet graph holds no GC-visible pointers,
// and resolving a Ref is a page lookup plus one array index.
type Ref uint32

// NilRef is the "no packet" sentinel.
const NilRef Ref = ^Ref(0)

// Store is the structure-of-arrays packet arena of one simulated network. A
// packet is a slot shared by four parallel arrays, split by access pattern:
//
//   - hdr: the immutable header (endpoints, size, class, ID) — hot reads in
//     the router stepping phase;
//   - route: the mutable routing state — the hottest array, updated at every
//     hop;
//   - times: lifecycle timestamps — written thrice, read at delivery;
//   - replyTo: the request a reply retains (reactive traffic only).
//
// The arrays are cut into fixed pages of pageSize slots; a Ref splits into a
// page number and an offset by shift and mask. Growth allocates one new page
// and never copies, so a saturated run's store costs what its peak population
// occupies, not the sum of every regrown array on the way there. Freed slots
// recycle LIFO through a free-list threaded through their replyTo entries, so
// a run at steady state allocates nothing per packet. A Store is NOT safe for
// concurrent use — each network instance (one replication, one goroutine)
// owns exactly one.
//
// Refs are only valid between Alloc and Free of their slot. The store can
// reissue a Ref immediately after Free, so no cache may outlive the packet it
// was built for: the router's plan cache is valid while its VC's planCur bit
// is set, which noteDequeue clears when the head leaves and SetEnv clears
// for a new network. Pointers returned by Hdr, Route and Times stay valid
// until the slot is freed or the store is Reset: pages never move.
type Store struct {
	pages []*page
	// slots is the number of slots ever handed out since the last Reset;
	// slots beyond it in the last page are untouched.
	slots int
	// freeHead is the most recently freed slot (meaningful while nfree > 0);
	// each free slot's replyTo entry links to the next one.
	freeHead Ref
	nfree    int

	// news and reuses count fresh slots and recycled ones, for tests and
	// capacity diagnostics.
	news, reuses int64

	// poison, when set, makes every accessor check slot liveness, so a
	// use-after-free panics instead of silently reading recycled state.
	// Enabled only by tests — the nil check is the hot path's whole cost
	// when disabled, and a plain run's pages carry no liveness bytes.
	poison *poisonState
}

// poisonState is what poison mode keeps: the allocated slots, flagged by Ref.
type poisonState struct{ live []bool }

// pageBits sets the page size: 1024 slots, 88 KiB per page.
const (
	pageBits = 10
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// page is one fixed block of slots, holding a slice of each SoA array.
type page struct {
	hdr     [pageSize]Header
	route   [pageSize]RouteState
	times   [pageSize]Times
	replyTo [pageSize]Ref
}

// NewStore returns an empty store whose page table has room for 64 pages
// (65 536 slots) before it regrows.
func NewStore() *Store { return &Store{pages: make([]*page, 0, 64)} }

// at returns the page holding ref and ref's offset in it.
func (s *Store) at(ref Ref) (*page, Ref) { return s.pages[ref>>pageBits], ref & pageMask }

// Alloc takes a slot (recycling a freed index when available), initialises
// the header and timestamps, and resets the routing state. The endpoint
// routers are left at InvalidRouter; traffic generation fills them via Hdr
// right after.
func (s *Store) Alloc(id uint64, src, dst NodeID, size int, class Class, genTime int64) Ref {
	var ref Ref
	if s.nfree > 0 {
		ref = s.freeHead
		p, i := s.at(ref)
		s.freeHead = p.replyTo[i]
		s.nfree--
		s.reuses++
	} else {
		ref = Ref(s.slots)
		if s.slots>>pageBits == len(s.pages) {
			s.pages = append(s.pages, new(page))
		}
		s.slots++
		s.news++
	}
	p, i := s.at(ref)
	p.hdr[i] = Header{
		ID: id, Src: src, Dst: dst,
		SrcRouter: InvalidRouter, DstRouter: InvalidRouter,
		Size: int32(size), Class: class,
	}
	p.times[i] = Times{Gen: genTime}
	p.route[i].Reset()
	p.replyTo[i] = NilRef
	if ps := s.poison; ps != nil {
		if int(ref) < len(ps.live) {
			ps.live[ref] = true
		} else {
			ps.live = append(ps.live, true)
		}
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
	p, i := s.at(ref)
	if s.poison != nil {
		s.check(ref)
		s.poison.live[ref] = false
		// Poison the slot: impossible values that fail fast if consumed.
		p.hdr[i] = Header{ID: ^uint64(0), Src: InvalidNode, Dst: InvalidNode,
			SrcRouter: InvalidRouter, DstRouter: InvalidRouter, Size: -1}
		p.route[i] = RouteState{Intermediate: InvalidRouter, InputVC: -2, Hops: -1}
		p.times[i] = Times{Gen: -1, Inject: -1, Recv: -1}
	}
	p.replyTo[i] = s.freeHead
	s.freeHead = ref
	s.nfree++
}

// Hdr returns the header of a live packet. The pointer stays valid until the
// slot is freed or the store is Reset.
func (s *Store) Hdr(ref Ref) *Header {
	if s.poison != nil {
		s.check(ref)
	}
	p, i := s.at(ref)
	return &p.hdr[i]
}

// Route returns the mutable routing state of a live packet. The pointer stays
// valid until the slot is freed or the store is Reset.
func (s *Store) Route(ref Ref) *RouteState {
	if s.poison != nil {
		s.check(ref)
	}
	p, i := s.at(ref)
	return &p.route[i]
}

// Times returns the lifecycle timestamps of a live packet. The pointer stays
// valid until the slot is freed or the store is Reset.
func (s *Store) Times(ref Ref) *Times {
	if s.poison != nil {
		s.check(ref)
	}
	p, i := s.at(ref)
	return &p.times[i]
}

// ReplyTo returns the request this reply retains, or NilRef.
func (s *Store) ReplyTo(ref Ref) Ref {
	if s.poison != nil {
		s.check(ref)
	}
	p, i := s.at(ref)
	return p.replyTo[i]
}

// SetReplyTo links a reply to the request it retains.
func (s *Store) SetReplyTo(ref, req Ref) {
	if s.poison != nil {
		s.check(ref)
	}
	p, i := s.at(ref)
	p.replyTo[i] = req
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
func (s *Store) Slots() int { return s.slots }

// InUse returns the number of live (allocated, unfreed) slots.
func (s *Store) InUse() int { return s.slots - s.nfree }

// Stats reports (fresh slots, recycled allocations) since the store was
// created or last Reset.
func (s *Store) Stats() (news, reuses int64) { return s.news, s.reuses }

// Reset forgets every packet but keeps the pages, so a recycled store (see
// the scratch set each of sim's replication workers owns) starts its next
// replication with zero per-packet allocations. Counters restart too.
func (s *Store) Reset() {
	s.slots, s.nfree = 0, 0
	s.news, s.reuses = 0, 0
	if s.poison != nil {
		s.poison.live = s.poison.live[:0]
	}
}

// EnablePoison turns on use-after-free detection: every accessor panics on a
// freed or out-of-range Ref, and Free scrambles the slot. Meant for tests;
// it must be called before the first Alloc.
func (s *Store) EnablePoison() {
	if s.slots != 0 {
		panic("packet: EnablePoison after Alloc")
	}
	s.poison = new(poisonState)
}

// check panics on a dangling Ref (poison mode only).
func (s *Store) check(ref Ref) {
	if int(ref) < s.slots && s.poison.live[ref] {
		return
	}
	panic(fmt.Sprintf("packet: use of dead ref %d (slots=%d)", ref, s.slots))
}

// Describe formats a packet for debugging.
func (s *Store) Describe(ref Ref) string {
	if ref == NilRef {
		return "pkt{nil}"
	}
	p, i := s.at(ref)
	h, r := &p.hdr[i], &p.route[i]
	return fmt.Sprintf("pkt{ref=%d id=%d %s %s %d->%d size=%d hops=%d}",
		ref, h.ID, h.Class, r.Kind, h.Src, h.Dst, h.Size, r.Hops)
}
